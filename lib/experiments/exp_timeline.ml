(* Timeline flight recorder (tl): drive a ramp + flash-crowd + trough RPC
   schedule against a TAS server, record 1 ms telemetry frames, and check
   the three properties the observability layer promises:

   1. Determinism — the timeline JSON is byte-identical across two
      same-seed runs, and merging per-member timelines from a parallel
      batch ([-j N]) reproduces the serial merge byte-for-byte.
   2. Watchdog — the health rules stay silent on the clean baseline and
      detect an injected retransmit storm (bursty loss + a mid-flash-crowd
      link blackout) on the chaos variant.
   3. Signal — per-core utilization visibly tracks the load shape: the
      flash-crowd window runs hotter than the early ramp. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module Nic = Tas_netsim.Nic
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Timeline = Tas_telemetry.Timeline
module Health = Tas_telemetry.Health
module J = Tas_telemetry.Json
module Rpc_echo = Tas_apps.Rpc_echo

let ms = Time_ns.ms
let msg_size = 64
let echo_app_cycles = 300

(* Same trick as the sharding sweep: inflate fast-path per-packet costs so
   the 2 fp cores are the bottleneck and utilization has a visible shape
   (uninflated, this workload would leave them nearly idle). *)
let inflate_fp c =
  {
    c with
    Config.fp_driver_cycles = 4 * c.Config.fp_driver_cycles;
    fp_rx_cycles = 4 * c.Config.fp_rx_cycles;
    fp_tx_cycles = 4 * c.Config.fp_tx_cycles;
    fp_ack_rx_cycles = 4 * c.Config.fp_ack_rx_cycles;
  }

(* Load schedule: ramp group A from the start, group B joining later, a
   large flash crowd that arrives and leaves, then a trough to the end. *)
type schedule = {
  t_end : int;
  a_conns : int;
  b_conns : int;
  b_start : int;
  flash_conns : int;
  flash_start : int;
  flash_stop : int;
  groups_stop : int;
  blackout : int * int;  (* chaos variant: link down window *)
}

let full_schedule =
  {
    t_end = ms 200;
    a_conns = 4;
    b_conns = 8;
    b_start = ms 40;
    flash_conns = 24;
    flash_start = ms 100;
    flash_stop = ms 140;
    groups_stop = ms 180;
    blackout = (ms 110, ms 118);
  }

let quick_schedule =
  {
    t_end = ms 120;
    a_conns = 4;
    b_conns = 6;
    b_start = ms 25;
    flash_conns = 16;
    flash_start = ms 60;
    flash_stop = ms 85;
    groups_stop = ms 105;
    blackout = (ms 66, ms 72);
  }

let chaos_spec sched =
  {
    (Fault.bursty_of_rate ~rate:0.01 ~mean_burst_pkts:4.0) with
    Fault.blackouts = [ sched.blackout ];
  }

type outcome = {
  frames : Timeline.frame list;
  tl_json : J.t;  (* full Timeline.to_json document *)
  completed : int;
}

(* One run of the schedule. [conns_extra] perturbs the workload size (the
   parallel-batch members must be distinguishable); [chaos] adds the seeded
   fault stage on both link directions. *)
let run_one ~interval_ns ~seed ~chaos ?(conns_extra = 0) sched =
  let sim = Sim.create () in
  let link = Topology.link_10g ~ecn_threshold:65 () in
  let net =
    if chaos then
      let rng = Rng.create seed in
      let spec = chaos_spec sched in
      Topology.point_to_point sim ~spec:link ~fault_ab:spec ~fault_ba:spec
        ~rng ~queues_per_nic:2 ()
    else Topology.point_to_point sim ~spec:link ~queues_per_nic:2 ()
  in
  let server =
    Scenario.build_server sim ~nic:net.Topology.a.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:4 ~app_cycles:echo_app_cycles
      ~split:(2, 2) ~timeline_ns:interval_ns ~tas_patch:inflate_fp ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size
    ~app_cycles:echo_app_cycles;
  let tas = Option.get server.Scenario.tas in
  let client = Scenario.client_transport sim net.Topology.b () in
  let dst_ip = Nic.ip net.Topology.a.Topology.nic in
  let stats = Rpc_echo.make_stats () in
  let group ~n ~start_at ~stop_at ~pipeline ~think_ns =
    if n > 0 then
      Rpc_echo.closed_loop_clients sim client ~n ~dst_ip ~dst_port:7 ~msg_size
        ~pipeline ~stagger_ns:50_000 ~start_at ~stop_at ~think_ns ~stats ()
  in
  group ~n:(sched.a_conns + conns_extra) ~start_at:1 ~stop_at:sched.groups_stop
    ~pipeline:2 ~think_ns:20_000;
  group ~n:sched.b_conns ~start_at:sched.b_start ~stop_at:sched.groups_stop
    ~pipeline:2 ~think_ns:20_000;
  group ~n:sched.flash_conns ~start_at:sched.flash_start
    ~stop_at:sched.flash_stop ~pipeline:4 ~think_ns:0;
  Sim.run ~until:sched.t_end sim;
  let tl = Option.get (Tas.timeline tas) in
  {
    frames = Timeline.frames tl;
    tl_json = Timeline.to_json tl;
    completed = Tas_engine.Stats.Counter.value stats.Rpc_echo.completed;
  }

(* --- Frame-series helpers -------------------------------------------------- *)

let fp_util (f : Timeline.frame) =
  List.fold_left
    (fun acc c ->
      if c.Timeline.c_role = "fp" then acc +. c.Timeline.c_util else acc)
    0.0 f.Timeline.cores

let gauge_value (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc +. v else acc)
    0.0 f.Timeline.gauges

let mean_util frames ~from_ts ~to_ts =
  let window =
    List.filter
      (fun (f : Timeline.frame) -> f.Timeline.ts > from_ts && f.Timeline.ts <= to_ts)
      frames
  in
  match window with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc f -> acc +. fp_util f) 0.0 window
    /. float_of_int (List.length window)

let frames_json frames =
  J.to_string (J.List (List.map Timeline.frame_to_json frames))

(* --- The experiment -------------------------------------------------------- *)

let run ?(quick = false) fmt =
  let sched = if quick then quick_schedule else full_schedule in
  let interval_ns = Health.frame_ns in
  Report.section fmt
    "Timeline: flight recorder determinism, load tracking, health watchdog";
  Report.note fmt
    (Printf.sprintf
       "ramp %d conns; +%d at %dms; flash crowd %d conns %d-%dms; trough to \
        %dms; %dus frames"
       sched.a_conns sched.b_conns (sched.b_start / 1_000_000)
       sched.flash_conns
       (sched.flash_start / 1_000_000)
       (sched.flash_stop / 1_000_000)
       (sched.t_end / 1_000_000) (interval_ns / 1000));
  (* Baseline twice with the same seed: byte-identical timelines. *)
  let base = run_one ~interval_ns ~seed:42 ~chaos:false sched in
  let base2 = run_one ~interval_ns ~seed:42 ~chaos:false sched in
  let base_bytes = J.to_string base.tl_json in
  let same_seed_ok = String.equal base_bytes (J.to_string base2.tl_json) in
  (* Chaos variant: seeded bursty loss + a blackout under the flash crowd. *)
  let chaos = run_one ~interval_ns ~seed:42 ~chaos:true sched in
  (* Serial vs parallel member batch, merged in submission order. *)
  let member i =
    (run_one ~interval_ns ~seed:(100 + i) ~chaos:false ~conns_extra:(2 * i)
       quick_schedule)
      .frames
  in
  let idx = Array.init 3 (fun i -> i) in
  let serial_members = Array.map member idx in
  (* A private two-participant pool, not the run's: the pass is truly
     parallel even at -j 1, and the body reads the same for every -j. *)
  let jobs = 2 in
  let par_members =
    Tas_parallel.Domain_pool.with_pool ~jobs (fun pool ->
        Tas_parallel.Domain_pool.map pool ~f:member idx)
  in
  let serial_merged = Timeline.merge (Array.to_list serial_members) in
  let par_merged = Timeline.merge (Array.to_list par_members) in
  let parallel_ok =
    String.equal (frames_json serial_merged) (frames_json par_merged)
  in
  (* Watchdog: silent on baseline, retransmit storm detected under chaos. *)
  let base_health = Health.check base.frames in
  let chaos_health = Health.check chaos.frames in
  let storm_frames =
    match List.assoc_opt Health.Rexmit_storm chaos_health.Health.by_rule with
    | Some n -> n
    | None -> 0
  in
  (* Utilization tracks the load shape: flash-crowd window vs early ramp. *)
  let ramp_util =
    mean_util base.frames ~from_ts:(ms 5) ~to_ts:(min (ms 35) sched.b_start)
  in
  let flash_util =
    mean_util base.frames ~from_ts:(sched.flash_start + ms 5)
      ~to_ts:sched.flash_stop
  in
  let util_tracks = flash_util > ramp_util *. 1.5 in
  (* Per-frame series (downsampled for the BENCH body; the full frames live
     in TIMELINE_tl.json). *)
  let every n l = List.filteri (fun i _ -> i mod n = 0) l in
  Report.series fmt ~name:"fp util (sum of 2 cores) vs t_ms"
    (List.map
       (fun (f : Timeline.frame) ->
         (Printf.sprintf "%d" (f.Timeline.ts / 1_000_000), fp_util f))
       (every 10 base.frames));
  Report.series fmt ~name:"live flows vs t_ms"
    (List.map
       (fun (f : Timeline.frame) ->
         ( Printf.sprintf "%d" (f.Timeline.ts / 1_000_000),
           gauge_value f "fp_flows" ))
       (every 10 base.frames));
  Report.kv fmt "frames captured (baseline)"
    (string_of_int (List.length base.frames));
  Report.kv fmt "rpcs completed (baseline)" (string_of_int base.completed);
  Report.gate fmt ~name:"same_seed_identical" ~ok:same_seed_ok
    ~observed:(if same_seed_ok then "identical" else "differs")
    ~expected:"same-seed timeline byte-identical";
  Report.gate fmt ~name:"parallel_identical" ~ok:parallel_ok
    ~observed:(if parallel_ok then "identical" else "differs")
    ~expected:
      (Printf.sprintf "serial vs -j%d merged timeline byte-identical" jobs);
  Report.kv fmt "baseline watchdog"
    (Printf.sprintf "%s (%d violations in %d frames)"
       (if base_health.Health.passed then "PASS" else "FAIL")
       (List.length base_health.Health.violations)
       base_health.Health.frames);
  let base_violations = List.length base_health.Health.violations in
  Report.gate fmt ~name:"baseline_violations" ~ok:(base_violations = 0)
    ~observed:(string_of_int base_violations) ~expected:"0";
  Report.kv fmt "chaos watchdog rexmit-storm frames"
    (string_of_int storm_frames);
  Report.gate fmt ~name:"chaos_rexmit_storm_frames" ~ok:(storm_frames > 0)
    ~observed:(string_of_int storm_frames) ~expected:"> 0";
  Report.kv fmt "chaos watchdog rules fired"
    (String.concat ", "
       (List.map
          (fun (r, n) -> Printf.sprintf "%s:%d" (Health.rule_name r) n)
          chaos_health.Health.by_rule));
  Report.kv fmt "fp util ramp vs flash"
    (Printf.sprintf "%.2f -> %.2f (%s)" ramp_util flash_util
       (if util_tracks then "tracks load" else "FLAT"));
  Report.gate fmt ~name:"util_tracks_load" ~ok:util_tracks
    ~observed:(Printf.sprintf "flash %.2f, ramp %.2f" flash_util ramp_util)
    ~expected:"flash > 1.5 x ramp";
  Report.attach "timeline"
    (J.Obj
       [
         ("interval_ns", J.Int interval_ns);
         ("frames", J.Int (List.length base.frames));
         ("same_seed_identical", J.Bool same_seed_ok);
         ("parallel_identical", J.Bool parallel_ok);
         ("parallel_jobs", J.Int jobs);
         ("baseline_violations", J.Int base_violations);
         ("chaos_rexmit_storm_frames", J.Int storm_frames);
         ("chaos_health", Health.report_to_json chaos_health);
         ("ramp_util", J.Float ramp_util);
         ("flash_util", J.Float flash_util);
         ("util_tracks_load", J.Bool util_tracks);
       ]);
  Report.add_timeline ~name:"baseline" base.tl_json;
  Report.add_timeline ~name:"chaos" chaos.tl_json
