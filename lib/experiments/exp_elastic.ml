(* Elastic core controller (el): a diurnal load schedule — morning ramp,
   flash crowd, overnight trough — run once per autoscaling policy, checking
   the properties the controller subsystem promises:

   1. Tracking — active fast-path cores follow the offered load shape
      (flash window runs more cores than the day plateau, the trough fewer)
      under both damped policies (Hysteresis, Slo).
   2. Bounded disruption — p99 RPC latency through controller-driven
      scale-down migrations blips less under Hysteresis (down-slow damping)
      than under the paper's undamped threshold rule.
   3. Auditability — every decision lands in the ctl_* counters and
      decision log, and the health watchdog (including the new core-flap
      rule) stays silent.

   The three policy runs are independent simulations mapped over the run's
   domain pool; that their merged output does not depend on -j is checked
   for the whole suite, not here. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Slow_path = Tas_core.Slow_path
module Policy = Tas_control.Policy
module Controller = Tas_control.Controller
module Timeline = Tas_telemetry.Timeline
module Health = Tas_telemetry.Health
module J = Tas_telemetry.Json
module Rpc_echo = Tas_apps.Rpc_echo

let ms = Time_ns.ms
let msg_size = 64
let echo_app_cycles = 300
let scale_check_ns = 2_000_000
let stack_cores = 6

(* Inflate fast-path per-packet costs so the offered load actually saturates
   cores and the idle-core signal has dynamic range (cf. the tl/sh sweeps,
   pushed harder here because up to 6 fp cores must be distinguishable). *)
let inflate_fp c =
  {
    c with
    Config.fp_driver_cycles = 6 * c.Config.fp_driver_cycles;
    fp_rx_cycles = 6 * c.Config.fp_rx_cycles;
    fp_tx_cycles = 6 * c.Config.fp_tx_cycles;
    fp_ack_rx_cycles = 6 * c.Config.fp_ack_rx_cycles;
  }

let elastic_patch policy c =
  {
    (inflate_fp c) with
    Config.autoscale =
      Some { Config.policy; check_interval_ns = scale_check_ns };
  }

(* Diurnal schedule: a small overnight-baseline group runs the whole time,
   a day group joins (the morning ramp), a flash crowd arrives and leaves,
   then the day group departs into the overnight trough. *)
type schedule = {
  t_end : int;
  base_conns : int;  (* overnight baseline, runs the whole schedule *)
  day_conns : int;
  day_start : int;
  flash_conns : int;
  flash_start : int;
  flash_stop : int;
  day_stop : int;
  (* Day-phase load pulses: short bursts separated by equally short gaps.
     The gaps are transient idle dips — shorter than Hysteresis's
     confirmation window but longer than one scale tick — so the undamped
     paper policy sheds a core on every dip and pays a latency blip when
     the next burst lands on the reduced core set (the F15 story), while
     damped policies ride through. *)
  pulse_conns : int;
  pulse_on : int;
  pulse_off : int;
  pulse_start : int;
  pulse_stop : int;
}

let full_schedule =
  {
    t_end = ms 240;
    base_conns = 3;
    day_conns = 10;
    day_start = ms 30;
    flash_conns = 32;
    flash_start = ms 100;
    flash_stop = ms 150;
    day_stop = ms 190;
    pulse_conns = 10;
    pulse_on = ms 4;
    pulse_off = ms 4;
    pulse_start = ms 40;
    pulse_stop = ms 96;
  }

let quick_schedule =
  {
    t_end = ms 130;
    base_conns = 3;
    day_conns = 8;
    day_start = ms 15;
    flash_conns = 24;
    flash_start = ms 50;
    flash_stop = ms 80;
    day_stop = ms 100;
    pulse_conns = 10;
    pulse_on = ms 4;
    pulse_off = ms 4;
    pulse_start = ms 22;
    pulse_stop = ms 46;
  }

(* Windowed p99 from latency-histogram bucket deltas: each call diffs the
   histogram's sparse buckets against the previous call and reconstructs a
   histogram of just that window's samples (lossless up to bucket
   quantization). Returns a negative value when the window saw no samples.
   Each consumer owns its own closure (independent windows). *)
let make_windowed_p99 (stats : Rpc_echo.stats) =
  let last = ref [] in
  fun () ->
    let cur = Stats.Hist.buckets stats.Rpc_echo.latency_us in
    let prev = !last in
    last := cur;
    (* Both lists are sparse and ascending; counts are monotone, so every
       prev index is present in cur. *)
    let rec diff cur prev acc =
      match (cur, prev) with
      | [], _ -> List.rev acc
      | c :: cs, [] -> diff cs [] (c :: acc)
      | ((ci, cc) :: cs as cur'), (pi, pc) :: ps ->
        if ci = pi then
          let d = cc - pc in
          diff cs ps (if d > 0 then (ci, d) :: acc else acc)
        else if ci < pi then diff cs prev ((ci, cc) :: acc)
        else diff cur' ps acc
    in
    match diff cur prev [] with
    | [] -> -1.0
    | window -> Stats.Hist.percentile (Stats.Hist.of_buckets window) 99.0

type outcome = {
  o_frames : Timeline.frame list;
  o_tl_json : J.t;
  o_completed : int;
  o_scale_events : (int * int) list;  (* (ts, new core count), time order *)
  o_decisions : Policy.decision list;
  o_ctl_json : J.t;
  o_p99_series : (int * float) list;  (* (ts, windowed p99 us), time order *)
  o_final_flows : int;
  o_conn_setups : int;
  o_scale_ups : int;
  o_scale_downs : int;
  o_denied : int;
  o_held : int;
}

(* One schedule run under one policy. *)
let run_one ~interval_ns ~policy sched =
  let sim = Sim.create () in
  let link = Topology.link_10g ~ecn_threshold:65 () in
  let net =
    Topology.point_to_point sim ~spec:link ~queues_per_nic:stack_cores ()
  in
  let server =
    Scenario.build_server sim ~nic:net.Topology.a.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:(2 + stack_cores)
      ~app_cycles:echo_app_cycles ~split:(2, stack_cores)
      ~timeline_ns:interval_ns
      ~tas_patch:(elastic_patch policy) ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size
    ~app_cycles:echo_app_cycles;
  let tas = Option.get server.Scenario.tas in
  let sp = Tas.slow_path tas in
  let ctl = Option.get (Slow_path.controller sp) in
  let scale_events = ref [] in
  Slow_path.set_scale_observer sp (fun ts n ->
      scale_events := (ts, n) :: !scale_events);
  let client = Scenario.client_transport sim net.Topology.b () in
  let dst_ip = Nic.ip net.Topology.a.Topology.nic in
  let stats = Rpc_echo.make_stats () in
  (* The SLO policy observes application latency through the controller's
     probe — same windowed-p99 closure the blip analysis uses. *)
  Controller.set_p99_probe ctl (make_windowed_p99 stats);
  let p99_probe = make_windowed_p99 stats in
  let p99_series = ref [] in
  Sim.periodic sim 1_000_000 (fun () ->
      let p = p99_probe () in
      if p >= 0.0 then p99_series := (Sim.now sim, p) :: !p99_series);
  let group ~n ~start_at ~stop_at ~pipeline ~think_ns =
    if n > 0 then
      Rpc_echo.closed_loop_clients sim client ~n ~dst_ip ~dst_port:7 ~msg_size
        ~pipeline ~stagger_ns:50_000 ~start_at ~stop_at ~think_ns ~stats ()
  in
  group ~n:sched.base_conns ~start_at:1 ~stop_at:sched.t_end ~pipeline:2
    ~think_ns:20_000;
  group ~n:sched.day_conns ~start_at:sched.day_start ~stop_at:sched.day_stop
    ~pipeline:2 ~think_ns:10_000;
  group ~n:sched.flash_conns ~start_at:sched.flash_start
    ~stop_at:sched.flash_stop ~pipeline:4 ~think_ns:0;
  let rec pulses at =
    if at + sched.pulse_on <= sched.pulse_stop then begin
      group ~n:sched.pulse_conns ~start_at:at ~stop_at:(at + sched.pulse_on)
        ~pipeline:2 ~think_ns:0;
      pulses (at + sched.pulse_on + sched.pulse_off)
    end
  in
  pulses sched.pulse_start;
  Sim.run ~until:sched.t_end sim;
  let tl = Option.get (Tas.timeline tas) in
  {
    o_frames = Timeline.frames tl;
    o_tl_json = Timeline.to_json tl;
    o_completed = Tas_engine.Stats.Counter.value stats.Rpc_echo.completed;
    o_scale_events = List.rev !scale_events;
    o_decisions = Controller.decisions ctl;
    o_ctl_json = Controller.to_json ctl;
    o_p99_series = List.rev !p99_series;
    o_final_flows =
      Tas_core.Flow_table.count (Tas_core.Fast_path.flows (Tas.fast_path tas));
    o_conn_setups = Slow_path.conn_setups sp;
    o_scale_ups = Controller.scale_ups ctl;
    o_scale_downs = Controller.scale_downs ctl;
    o_denied = Controller.denied_cooldown ctl;
    o_held = Controller.held_confirm ctl;
  }

(* --- Series analysis ------------------------------------------------------ *)

let gauge_value (f : Timeline.frame) name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc +. v else acc)
    0.0 f.Timeline.gauges

let mean_cores frames ~from_ts ~to_ts =
  let window =
    List.filter
      (fun (f : Timeline.frame) ->
        f.Timeline.ts > from_ts && f.Timeline.ts <= to_ts)
      frames
  in
  match window with
  | [] -> 0.0
  | _ ->
    List.fold_left
      (fun acc f -> acc +. gauge_value f "fp_active_cores")
      0.0 window
    /. float_of_int (List.length window)

(* p99 of the quiet day plateau: the reference the scale-down blips are
   measured against. Median of the windowed-p99 samples in the window. *)
let median_p99 series ~from_ts ~to_ts =
  let w =
    List.filter_map
      (fun (ts, p) -> if ts > from_ts && ts <= to_ts then Some p else None)
      series
  in
  match List.sort compare w with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Worst windowed p99 in the [follow_ns] after a mid-load scale-down: the
   disruption cost of shedding a core while traffic still needs it. Only
   shrinks under remaining offered load count (the trough's shrinks disturb
   nobody), and a pre-flash window is clipped at the flash-crowd arrival so
   the crowd's own onset latency is never attributed to a shrink. A damped
   policy that never sheds a core mid-load scores zero — ideal. *)
let scale_down_blip sched ~scale_events ~p99_series ~follow_ns =
  let downs =
    let rec collect prev = function
      | [] -> []
      | (ts, n) :: rest ->
        if n < prev then ts :: collect n rest else collect n rest
    in
    collect 1 scale_events
  in
  let eligible = List.filter (fun ts -> ts < sched.day_stop) downs in
  let blip =
    List.fold_left
      (fun acc down_ts ->
        let until =
          if down_ts < sched.flash_start then
            min (down_ts + follow_ns) sched.flash_start
          else down_ts + follow_ns
        in
        List.fold_left
          (fun acc (ts, p) ->
            if ts > down_ts && ts <= until then max acc p else acc)
          acc p99_series)
      0.0 eligible
  in
  (List.length eligible, blip)

let every n l = List.filteri (fun i _ -> i mod n = 0) l

let last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

(* --- The experiment ------------------------------------------------------- *)

type policy_result = {
  r_name : string;
  r_out : outcome;
  r_day : float;
  r_flash : float;
  r_trough : float;
  r_tracks : bool;
  r_downs : int;
  r_blip : float;
  r_blip_ratio : float;
}

let analyze sched name (out : outcome) =
  let day =
    mean_cores out.o_frames
      ~from_ts:(sched.day_start + ms 10)
      ~to_ts:sched.flash_start
  in
  let flash =
    mean_cores out.o_frames
      ~from_ts:(sched.flash_start + ms 5)
      ~to_ts:sched.flash_stop
  in
  let trough =
    mean_cores out.o_frames ~from_ts:(sched.day_stop + ms 10) ~to_ts:sched.t_end
  in
  let tracks = flash > day +. 0.25 && trough < flash -. 0.25 in
  let day_p99 =
    median_p99 out.o_p99_series
      ~from_ts:(sched.day_start + ms 10)
      ~to_ts:sched.flash_start
  in
  let downs, blip =
    scale_down_blip sched ~scale_events:out.o_scale_events
      ~p99_series:out.o_p99_series ~follow_ns:(ms 6)
  in
  let blip_ratio = if day_p99 > 0.0 then blip /. day_p99 else 0.0 in
  {
    r_name = name;
    r_out = out;
    r_day = day;
    r_flash = flash;
    r_trough = trough;
    r_tracks = tracks;
    r_downs = downs;
    r_blip = blip;
    r_blip_ratio = blip_ratio;
  }

let policy_json r =
  let cores_series =
    List.map
      (fun (f : Timeline.frame) ->
        J.List
          [
            J.Int (f.Timeline.ts / 1_000_000);
            J.Int (int_of_float (gauge_value f "fp_active_cores"));
          ])
      (every 2 r.r_out.o_frames)
  in
  J.Obj
    [
      ("policy", J.Str r.r_name);
      ("completed", J.Int r.r_out.o_completed);
      ("conn_setups", J.Int r.r_out.o_conn_setups);
      ("final_flows", J.Int r.r_out.o_final_flows);
      ("day_cores", J.Float r.r_day);
      ("flash_cores", J.Float r.r_flash);
      ("trough_cores", J.Float r.r_trough);
      ("tracks_load", J.Bool r.r_tracks);
      ("scale_downs_observed", J.Int r.r_downs);
      ("scale_down_blip_p99_us", J.Float r.r_blip);
      ("blip_ratio", J.Float r.r_blip_ratio);
      ("controller", r.r_out.o_ctl_json);
      ("cores_series_ms", J.List cores_series);
      ( "decisions_tail",
        J.List (List.map Policy.decision_to_json (last 64 r.r_out.o_decisions))
      );
    ]

let run ?(quick = false) fmt =
  let sched = if quick then quick_schedule else full_schedule in
  let interval_ns = Health.frame_ns in
  let slo_target_us = 60.0 in
  Report.section fmt
    "Elastic controller: diurnal autoscaling under pluggable policies";
  Report.note fmt
    (Printf.sprintf
       "baseline %d conns; day +%d at %dms; flash crowd %d conns %d-%dms; \
        trough after %dms; scale tick %dus, %d stack cores"
       sched.base_conns sched.day_conns
       (sched.day_start / 1_000_000)
       sched.flash_conns
       (sched.flash_start / 1_000_000)
       (sched.flash_stop / 1_000_000)
       (sched.day_stop / 1_000_000)
       (scale_check_ns / 1000) stack_cores);
  let policies =
    [
      ("paper_threshold", Policy.paper_default);
      ("hysteresis", Policy.hysteresis_default);
      ("slo", Policy.slo_default ~p99_target_us:slo_target_us);
    ]
  in
  (* Results come back in submission order, and all reporting below
     happens on this domain (the artifact is domain-local). *)
  let results =
    Array.to_list
      (Tas_parallel.Domain_pool.map (Run_opts.pool ())
         ~f:(fun (name, policy) ->
           analyze sched name (run_one ~interval_ns ~policy sched))
         (Array.of_list policies))
  in
  let find name = List.find (fun r -> r.r_name = name) results in
  let paper = find "paper_threshold" in
  let hyst = find "hysteresis" in
  let slo = find "slo" in
  (* Watchdog (with the core-flap rule) on the damped policies. Autoscaled
     operation deliberately concentrates flows on few shards whenever few
     cores are active (max/mean == num_shards at 1 core), so the skew rule
     is inapplicable here — disarm it by raising its bound past the
     max/mean ceiling; every other rule stays at its default. *)
  let el_thresholds =
    {
      Health.default_thresholds with
      Health.shard_imbalance = float_of_int stack_cores +. 1.0;
    }
  in
  let hyst_health = Health.check ~thresholds:el_thresholds hyst.r_out.o_frames in
  let slo_health = Health.check ~thresholds:el_thresholds slo.r_out.o_frames in
  let paper_health =
    Health.check ~thresholds:el_thresholds paper.r_out.o_frames
  in
  let health_violations =
    List.length hyst_health.Health.violations
    + List.length slo_health.Health.violations
  in
  (* Hysteresis may legitimately have zero mid-load shrinks (the damping
     worked); the gate only needs the paper policy to have paid a bigger
     blip than it did. *)
  let blip_smaller = paper.r_downs > 0 && hyst.r_blip < paper.r_blip in
  (* Report. *)
  Report.table fmt
    ~header:
      [
        "policy"; "day cores"; "flash"; "trough"; "tracks"; "downs";
        "blip p99 [us]"; "rpcs";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.r_name;
             Report.f2 r.r_day;
             Report.f2 r.r_flash;
             Report.f2 r.r_trough;
             (if r.r_tracks then "yes" else "NO");
             string_of_int r.r_downs;
             Report.f1 r.r_blip;
             string_of_int r.r_out.o_completed;
           ])
         results);
  List.iter
    (fun r ->
      Report.series fmt
        ~name:(Printf.sprintf "active cores (%s) vs t_ms" r.r_name)
        (List.map
           (fun (f : Timeline.frame) ->
             ( string_of_int (f.Timeline.ts / 1_000_000),
               gauge_value f "fp_active_cores" ))
           (every 10 r.r_out.o_frames)))
    results;
  Report.kv fmt "scale-down p99 blip paper vs hysteresis"
    (Printf.sprintf "%.1f us vs %.1f us (%s)" paper.r_blip hyst.r_blip
       (if blip_smaller then "hysteresis smaller" else "NOT SMALLER"));
  Report.gate fmt ~name:"blip_smaller_under_hysteresis" ~ok:blip_smaller
    ~observed:
      (Printf.sprintf "hysteresis %.1f us, paper %.1f us over %d shrinks"
         hyst.r_blip paper.r_blip paper.r_downs)
    ~expected:"paper shrinks > 0 and hysteresis < paper";
  let paper_flap =
    match List.assoc_opt Health.Core_flap paper_health.Health.by_rule with
    | Some n -> n
    | None -> 0
  in
  Report.kv fmt "watchdog (hysteresis+slo, incl. core-flap rule)"
    (Printf.sprintf "%d violations" health_violations);
  Report.gate fmt ~name:"health_violations" ~ok:(health_violations = 0)
    ~observed:(string_of_int health_violations) ~expected:"0";
  List.iter
    (fun r ->
      Report.gate fmt ~name:("tracks_load." ^ r.r_name) ~ok:r.r_tracks
        ~observed:
          (Printf.sprintf "day %.2f, flash %.2f, trough %.2f cores" r.r_day
             r.r_flash r.r_trough)
        ~expected:"flash > day + 0.25 and trough < flash - 0.25")
    [ hyst; slo ];
  Report.kv fmt "watchdog core-flap frames (paper_threshold)"
    (string_of_int paper_flap);
  Report.kv fmt "ctl counters (hysteresis)"
    (Printf.sprintf "ups %d downs %d denied %d held %d" hyst.r_out.o_scale_ups
       hyst.r_out.o_scale_downs hyst.r_out.o_denied hyst.r_out.o_held);
  Report.attach "autoscale"
    (J.Obj
       [
         ("interval_ns", J.Int interval_ns);
         ("scale_check_ns", J.Int scale_check_ns);
         ("slo_target_us", J.Float slo_target_us);
         ("health_violations", J.Int health_violations);
         ("paper_core_flap_frames", J.Int paper_flap);
         ("hysteresis_health", Health.report_to_json hyst_health);
         ("blip_paper_us", J.Float paper.r_blip);
         ("blip_hysteresis_us", J.Float hyst.r_blip);
         ("blip_smaller_under_hysteresis", J.Bool blip_smaller);
         ("policies", J.List (List.map policy_json results));
       ]);
  List.iter
    (fun r -> Report.add_timeline ~name:r.r_name r.r_out.o_tl_json)
    results
