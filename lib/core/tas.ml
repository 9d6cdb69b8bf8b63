module Core = Tas_cpu.Core
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module Span = Tas_telemetry.Span
module Json = Tas_telemetry.Json
module Timeline = Tas_telemetry.Timeline

type t = {
  sim : Tas_engine.Sim.t;
  config : Config.t;
  fp : Fast_path.t;
  sp : Slow_path.t;
  fp_cores : Core.t array;
  sp_core : Core.t;
  metrics : Metrics.t;
  tracer : Trace.t;
  span : Span.t;
  timeline : Timeline.t option;
  mutable next_app : int;
}

(* Per-core busy gauges, broken down by the paper's per-module categories
   (Table 1/2): core_busy_ns{core=...,cat=...}. *)
let register_core_breakdown m ~role core =
  let labels_base = [ ("core", string_of_int (Core.id core)); ("role", role) ] in
  Metrics.gauge_fn m ~labels:labels_base
    ~help:"total busy time on this core (ns)" "core_busy_ns" (fun () ->
      float_of_int (Core.busy_ns core));
  List.iter
    (fun cat ->
      Metrics.gauge_fn m
        ~labels:(("cat", Core.category_name cat) :: labels_base)
        ~help:"busy time on this core attributed to one module category (ns)"
        "core_busy_cat_ns"
        (fun () -> float_of_int (Core.busy_ns_of core cat)))
    Core.categories

(* Per-interval utilization feeds the timeline as probe closures, keeping
   the telemetry layer free of any cpu/core dependency. *)
let timeline_add_core tl ~role ~interval_ns core =
  Core.enable_util_buckets core ~interval_ns;
  Timeline.add_core tl ~role ~id:(Core.id core)
    ~busy_in:(fun bucket -> Core.util_busy_ns core ~bucket)
    ~backlog:(fun () -> Core.backlog_ns core)

(* Frames the timeline ring keeps; the oldest is evicted when full. *)
let timeline_capacity = 4096

let create sim ~nic ~config ?(span = Span.disabled ()) () =
  let fp_cores =
    Array.init config.Config.max_fast_path_cores (fun i ->
        Core.create sim ~id:i ())
  in
  let sp_core = Core.create sim ~id:1000 () in
  let tracer =
    match config.Config.trace_capacity with
    | Some capacity -> Trace.create ~capacity ()
    | None -> Trace.disabled ()
  in
  let fp =
    Fast_path.create ~trace:tracer ~span sim ~nic ~cores:fp_cores ~config
  in
  Fast_path.attach fp;
  (* Checksum-validation drops on this host's NIC share the instance's
     trace ring. *)
  Tas_netsim.Nic.set_trace nic tracer;
  (* Start with a single active core when scaling dynamically; at the
     configured maximum otherwise. *)
  if Option.is_some config.Config.autoscale then
    Fast_path.set_active_cores fp 1
  else Fast_path.set_active_cores fp config.Config.max_fast_path_cores;
  let sp = Slow_path.create sim ~fast_path:fp ~core:sp_core ~config in
  let metrics = Metrics.create () in
  Fast_path.register fp metrics;
  Slow_path.register sp metrics;
  (* Controller audit counters, present iff dynamic scaling. *)
  (match Slow_path.controller sp with
  | Some ctl -> Tas_control.Controller.register ctl metrics
  | None -> ());
  Tas_netsim.Nic.register nic metrics ();
  Array.iter (register_core_breakdown metrics ~role:"fp") fp_cores;
  register_core_breakdown metrics ~role:"sp" sp_core;
  (* Ring self-observability: the watchdog's ring-drop rule reads these. *)
  Metrics.counter_fn metrics ~help:"trace events dropped (ring full)"
    "trace_dropped_events" (fun () -> Trace.dropped tracer);
  Metrics.counter_fn metrics ~help:"span hop events dropped (ring full)"
    "span_dropped_events" (fun () -> Span.dropped span);
  let timeline =
    if config.Config.timeline_interval_ns <= 0 then None
    else begin
      let interval_ns = config.Config.timeline_interval_ns in
      let tl =
        Timeline.create ~interval_ns
          ~capacity:timeline_capacity ~metrics ()
      in
      Array.iter (timeline_add_core tl ~role:"fp" ~interval_ns) fp_cores;
      timeline_add_core tl ~role:"sp" ~interval_ns sp_core;
      let ft = Fast_path.flows fp in
      Timeline.set_shard_probe tl (fun () ->
          Array.init (Flow_table.num_shards ft) (Flow_table.shard_count ft));
      let arena = Slow_path.arena sp in
      Timeline.set_arena_probe tl (fun () ->
          Some (Flow_arena.live arena, Flow_arena.capacity arena));
      Tas_engine.Sim.periodic sim interval_ns (fun () ->
          Timeline.capture tl ~ts:(Tas_engine.Sim.now sim));
      Some tl
    end
  in
  { sim; config; fp; sp; fp_cores; sp_core; metrics; tracer; span; timeline;
    next_app = 0 }

let fast_path t = t.fp
let slow_path t = t.sp
let config t = t.config
let fp_cores t = t.fp_cores
let sp_core t = t.sp_core
let metrics t = t.metrics
let trace t = t.tracer
let span t = t.span
let timeline t = t.timeline

let app t ~app_cores ~api =
  let lt = Libtas.create t.sim ~fast_path:t.fp ~slow_path:t.sp ~app_cores ~api () in
  let idx = t.next_app in
  t.next_app <- t.next_app + 1;
  Libtas.register lt t.metrics ~labels:[ ("app", string_of_int idx) ] ();
  Array.iteri
    (fun i core ->
      let role = Printf.sprintf "app%d_%d" idx i in
      register_core_breakdown t.metrics ~role core;
      match t.timeline with
      | Some tl ->
        timeline_add_core tl ~role
          ~interval_ns:t.config.Config.timeline_interval_ns core
      | None -> ())
    app_cores;
  lt

let fp_busy_ns t =
  Array.fold_left (fun acc c -> acc + Core.busy_ns c) 0 t.fp_cores

let cycle_breakdown t =
  let acc = List.map (fun cat -> (cat, ref 0)) Core.categories in
  let add core =
    List.iter (fun (cat, r) -> r := !r + Core.busy_ns_of core cat) acc
  in
  Array.iter add t.fp_cores;
  add t.sp_core;
  List.map (fun (cat, r) -> (cat, !r)) acc

type snapshot = {
  flows : int;
  active_fp_cores : int;
  conn_setups : int;
  conn_teardowns : int;
  timeout_retransmits : int;
  rx_data_packets : int;
  rx_ack_packets : int;
  tx_data_packets : int;
  acks_sent : int;
  ooo_stored : int;
  payload_drops : int;
  fast_retransmits : int;
  exceptions_forwarded : int;
  malformed_drops : int;
  rsts_sent : int;
  fp_busy_ms : float;
  sp_busy_ms : float;
}

(* The snapshot is now a typed view over the metrics registry: every field
   below is also registered (fp_*, sp_*, core_busy_ns) and the two are read
   from the same underlying mutable counters. *)
let snapshot t =
  let s = Fast_path.stats t.fp in
  {
    flows = Flow_table.count (Fast_path.flows t.fp);
    active_fp_cores = Fast_path.active_cores t.fp;
    conn_setups = Slow_path.conn_setups t.sp;
    conn_teardowns = Slow_path.conn_teardowns t.sp;
    timeout_retransmits = Slow_path.timeout_retransmits t.sp;
    rx_data_packets = s.Fast_path.rx_data_packets;
    rx_ack_packets = s.Fast_path.rx_ack_packets;
    tx_data_packets = s.Fast_path.tx_data_packets;
    acks_sent = s.Fast_path.acks_sent;
    ooo_stored = s.Fast_path.ooo_stored;
    payload_drops = s.Fast_path.payload_drops;
    fast_retransmits = s.Fast_path.fast_retransmits;
    exceptions_forwarded = s.Fast_path.exceptions_forwarded;
    malformed_drops = s.Fast_path.malformed_drops;
    rsts_sent = Slow_path.rsts_sent t.sp;
    fp_busy_ms = float_of_int (fp_busy_ns t) /. 1e6;
    sp_busy_ms = float_of_int (Core.busy_ns t.sp_core) /. 1e6;
  }

(* --- Flow introspection -------------------------------------------------- *)

let shard_summary ft =
  Json.List
    (List.init (Flow_table.num_shards ft) (fun i ->
         let s = Flow_table.shard_stats ft i in
         Json.Obj
           [
             ("shard", Json.Int i);
             ("flows", Json.Int s.Flow_table.flows);
             ("lookups", Json.Int s.Flow_table.lookups);
             ("installs", Json.Int s.Flow_table.installs);
             ("removes", Json.Int s.Flow_table.removes);
             ("migrations_in", Json.Int s.Flow_table.migrations_in);
             ("migrations_out", Json.Int s.Flow_table.migrations_out);
             ("lock_cycles", Json.Int s.Flow_table.lock_cycles);
           ]))

let flows t =
  let ft = Fast_path.flows t.fp in
  Json.Obj
    [
      ("now_ns", Json.Int (Tas_engine.Sim.now t.sim));
      ( "recovery_policy",
        Json.Str
          (Tas_recovery.Policy.name t.config.Config.recovery_policy) );
      ("count", Json.Int (Flow_table.count ft));
      ("shards", shard_summary ft);
      ("flows", Flow_table.dump ft);
      ("lifecycle", Slow_path.lifecycle_json t.sp);
    ]

let pp_flows fmt t =
  let rows = ref [] in
  Flow_table.iter (Fast_path.flows t.fp) (fun tuple fl -> rows := (tuple, fl) :: !rows);
  let rows =
    List.sort
      (fun (_, a) (_, b) ->
        compare (Flow_state.opaque a) (Flow_state.opaque b))
      !rows
  in
  Format.fprintf fmt "@[<v>%d flows at t=%dns (recovery: %s)@,"
    (List.length rows)
    (Tas_engine.Sim.now t.sim)
    (Tas_recovery.Policy.name t.config.Config.recovery_policy);
  List.iter
    (fun (tuple, fl) ->
      let module Ring = Tas_buffers.Ring_buffer in
      let state =
        if Flow_state.fin_sent fl || Flow_state.fin_received fl then "CLOSING"
        else if Flow_state.in_recovery fl then "RECOVERY"
        else "ESTAB"
      in
      let rate =
        match Rate_bucket.mode (Flow_state.bucket fl) with
        | Rate_bucket.Rate bps -> Printf.sprintf "rate %.1fMbps" (bps /. 1e6)
        | Rate_bucket.Window w -> Printf.sprintf "cwnd %dB" w
      in
      let scoreboard =
        match Flow_state.recovery_kind fl with
        | Tas_recovery.Policy.Reno -> ""
        | Sack | Rack_tlp ->
          let sb = (Flow_state.recovery fl).Tas_recovery.State.sb in
          Printf.sprintf "  sb live %d sacked %d lost %d"
            (Tas_recovery.Scoreboard.live_segs sb)
            (Tas_recovery.Scoreboard.live_sacked sb)
            (Tas_recovery.Scoreboard.live_lost sb)
      in
      Format.fprintf fmt
        "%-8s %a  txq %d/%d inflight %d rxq %d  wnd %d  %s  rtt %dus \
         dupacks %d frexmits %d%s@,"
        state Tas_proto.Addr.Four_tuple.pp tuple
        (Ring.used (Flow_state.tx_buf fl))
        (Ring.capacity (Flow_state.tx_buf fl))
        (Flow_state.tx_sent fl)
        (Ring.used (Flow_state.rx_buf fl))
        (Flow_state.window fl) rate
        (Flow_state.rtt_est fl / 1000)
        (Flow_state.dupack_cnt fl) (Flow_state.cnt_frexmits fl) scoreboard)
    rows;
  Format.fprintf fmt "@]"

let pp_snapshot fmt s =
  Format.fprintf fmt
    "@[<v>flows: %d (setups %d, teardowns %d)@,fast path: %d active cores, \
     %.1f ms busy@,rx: %d data + %d ack packets; tx: %d data + %d acks@,\
     recovery: %d ooo stored, %d payload drops, %d fast rexmits, %d \
     timeouts@,hardening: %d malformed drops, %d rsts sent@,\
     slow path: %d exceptions, %.1f ms busy@]"
    s.flows s.conn_setups s.conn_teardowns s.active_fp_cores s.fp_busy_ms
    s.rx_data_packets s.rx_ack_packets s.tx_data_packets s.acks_sent
    s.ooo_stored s.payload_drops s.fast_retransmits s.timeout_retransmits
    s.malformed_drops s.rsts_sent s.exceptions_forwarded s.sp_busy_ms
