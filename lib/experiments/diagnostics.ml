(* A fully-instrumented diagnostic scenario: TAS on BOTH ends of a star
   topology (one client host, one switch, one server host), with a single
   span collector wired into every hop a packet crosses —

     libTAS send -> fast-path TX -> NIC TX -> uplink queue/out
       -> switch forward -> downlink queue/out -> NIC RX
       -> fast-path RX -> context notify -> libTAS deliver

   so one sampled request produces a causal span covering the entire
   end-to-end path. Both hosts also keep a trace ring and a timeline. The
   "dg" experiment makes one run of it and writes every view of that run —
   per-hop spans, cycle breakdown, trace counts, flow tables, merged
   metrics, health verdicts and the Chrome document — into BENCH_dg.json. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Switch = Tas_netsim.Switch
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo
module Span = Tas_telemetry.Span
module Trace = Tas_telemetry.Trace
module Metrics = Tas_telemetry.Metrics
module Timeline = Tas_telemetry.Timeline
module Health = Tas_telemetry.Health
module Chrome = Tas_telemetry.Chrome
module J = Tas_telemetry.Json

type t = {
  sim : Sim.t;
  span : Span.t;
  net : Topology.star;
  server : Tas.t;
  client : Tas.t;
  stats : Rpc_echo.stats;
}

let duration_ns ~quick = if quick then Time_ns.ms 5 else Time_ns.ms 10

(* Both hosts' trace rings and timelines. The ring holds 65,536 events:
   over the 10 ms run the server records 17,124, so an 8,192-event ring
   would keep only the last half; at 40 ms even this size overflows and the
   [ring_drops] health rule fires. *)
let patch c =
  {
    c with
    Config.trace_capacity = Some 65_536;
    timeline_interval_ns = Health.frame_ns;
  }

let wire_endpoint span (ep : Topology.endpoint) =
  Nic.set_span ep.Topology.nic ~origin:true span;
  Port.set_span ep.Topology.uplink span;
  Port.set_span ep.Topology.downlink span

let client_tas sim ~nic ~span =
  let config =
    patch
      {
        Config.default with
        Config.max_fast_path_cores = 2;
        rx_buf_size = 16384;
        tx_buf_size = 16384;
      }
  in
  let tas = Tas.create sim ~nic ~config ~span () in
  let app_cores = Array.init 2 (fun i -> Core.create sim ~id:(200 + i) ()) in
  let lt = Tas.app tas ~app_cores ~api:Libtas.Sockets in
  let transport =
    Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod Array.length app_cores)
  in
  (tas, transport)

let msg_size = 64

(* 8 connections of 64-byte echo RPCs pipelined 4 deep; spans sample 1
   packet origin in 16 into a 65,536-event ring. *)
let build () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:8 () in
  let span = Span.create ~enabled:true ~sample_every:16 ~capacity:65536 () in
  wire_endpoint span net.Topology.server;
  Array.iter (wire_endpoint span) net.Topology.clients;
  Switch.set_span net.Topology.switch span;
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_so ~total_cores:4 ~span ~tas_patch:patch ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size ~app_cycles:680;
  let server_tas =
    match server.Scenario.tas with
    | Some tas -> tas
    | None -> assert false (* Tas_so servers always carry a TAS instance *)
  in
  let client_tas, client_transport =
    client_tas sim ~nic:net.Topology.clients.(0).Topology.nic ~span
  in
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim client_transport ~n:8
    ~dst_ip:(Nic.ip net.Topology.server.Topology.nic)
    ~dst_port:7 ~msg_size ~pipeline:4 ~stagger_ns:5_000 ~stats ();
  { sim; span; net; server = server_tas; client = client_tas; stats }

let run t ~duration_ns = Sim.run ~until:duration_ns t.sim

let frames tas =
  Option.fold ~none:[] ~some:Timeline.frames (Tas.timeline tas)

let chrome_of t ~spans ~server_events ~client_events =
  let host name tas events = { Chrome.name; events; frames = frames tas } in
  Chrome.to_json ~spans
    [ host "server" t.server server_events; host "client" t.client client_events ]

let chrome t ~spans =
  chrome_of t ~spans
    ~server_events:(Trace.drain (Tas.trace t.server))
    ~client_events:(Trace.drain (Tas.trace t.client))

(* --- The "dg" experiment ------------------------------------------------- *)

let hist_json h =
  J.Obj
    [
      ("count", J.Int (Stats.Hist.count h));
      ("mean_ns", J.Float (Stats.Hist.mean h));
      ("p50_ns", J.Float (Stats.Hist.percentile h 50.));
      ("p99_ns", J.Float (Stats.Hist.percentile h 99.));
      ("max_ns", J.Float (Stats.Hist.max_v h));
    ]

let hist_total h = Stats.Hist.mean h *. float_of_int (Stats.Hist.count h)

(* Per-hop latency decomposition of the sampled spans, with the check that
   each span's segments sum to its end-to-end latency. *)
let report_spans fmt t events =
  let b = Span.breakdown events in
  Report.table fmt
    ~header:[ "segment"; "count"; "mean [us]"; "p50 [us]"; "p99 [us]" ]
    ~rows:
      (List.map
         (fun s ->
           let h = s.Span.seg_hist in
           [
             Span.hop_name s.Span.seg_from ^ "->" ^ Span.hop_name s.Span.seg_to;
             string_of_int (Stats.Hist.count h);
             Report.f2 (Stats.Hist.mean h /. 1e3);
             Report.f2 (Stats.Hist.percentile h 50. /. 1e3);
             Report.f2 (Stats.Hist.percentile h 99. /. 1e3);
           ])
         b.Span.segments);
  let e2e = b.Span.end_to_end in
  Report.kv fmt "spans" (string_of_int b.Span.spans);
  Report.kv fmt "complete spans (app-to-app)" (string_of_int b.Span.complete);
  Report.kv fmt "end-to-end mean [us]"
    (Report.f2 (Stats.Hist.mean e2e /. 1e3));
  Report.kv fmt "end-to-end p99 [us]"
    (Report.f2 (Stats.Hist.percentile e2e 99. /. 1e3));
  Report.kv fmt "origins offered" (string_of_int (Span.offered t.span));
  Report.kv fmt "spans started" (string_of_int (Span.started t.span));
  Report.kv fmt "span events dropped (ring full)"
    (string_of_int (Span.dropped t.span));
  let seg_total =
    List.fold_left
      (fun acc s -> acc +. hist_total s.Span.seg_hist)
      0.0 b.Span.segments
  in
  let e2e_total = hist_total e2e in
  let ratio = if e2e_total = 0.0 then nan else seg_total /. e2e_total in
  Report.gate fmt ~name:"hops_sum_to_end_to_end"
    ~ok:(Float.abs (ratio -. 1.0) <= 1e-9)
    ~observed:(Printf.sprintf "hop-sum / end-to-end total %.12g" ratio)
    ~expected:"1 within 1e-9";
  Report.attach "span"
    (J.Obj
       [
         ("offered", J.Int (Span.offered t.span));
         ("started", J.Int (Span.started t.span));
         ("recorded", J.Int (Span.recorded t.span));
         ("dropped", J.Int (Span.dropped t.span));
         ("spans", J.Int b.Span.spans);
         ("complete", J.Int b.Span.complete);
         ("end_to_end", hist_json e2e);
         ( "segments",
           J.List
             (List.map
                (fun s ->
                  J.Obj
                    [
                      ("from", J.Str (Span.hop_name s.Span.seg_from));
                      ("to", J.Str (Span.hop_name s.Span.seg_to));
                      ("hist", hist_json s.Span.seg_hist);
                    ])
                b.Span.segments) );
       ])

(* Throughput and latency over the run, then the server's per-module cycle
   breakdown over its fast-path and slow-path cores (Tables 1/2). *)
let report_rpcs fmt t ~duration_ns =
  let lat = t.stats.Rpc_echo.latency_us in
  let completed = Stats.Counter.value t.stats.Rpc_echo.completed in
  let rate = float_of_int completed /. Time_ns.to_sec_f duration_ns in
  Report.table fmt
    ~header:[ "metric"; "value" ]
    ~rows:
      [
        [ "throughput [Kreq/s]"; Report.f1 (rate /. 1e3) ];
        [ "latency p50 [us]"; Report.f1 (Stats.Hist.percentile lat 50.) ];
        [ "latency p90 [us]"; Report.f1 (Stats.Hist.percentile lat 90.) ];
        [ "latency p99 [us]"; Report.f1 (Stats.Hist.percentile lat 99.) ];
        [ "rpcs completed"; string_of_int completed ];
      ];
  let breakdown = Tas.cycle_breakdown t.server in
  let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 breakdown in
  Report.table fmt
    ~header:[ "server category"; "busy [ms]"; "share" ]
    ~rows:
      (List.filter_map
         (fun (cat, ns) ->
           if ns = 0 then None
           else
             Some
               [
                 Core.category_name cat;
                 Report.f2 (float_of_int ns /. 1e6);
                 Report.pct (100. *. float_of_int ns /. float_of_int total);
               ])
         breakdown)

(* Trace events by kind per host, and what each ring recorded and dropped. *)
let report_trace fmt t ~server_events ~client_events =
  let server_counts = Trace.counts_by_kind server_events in
  let client_counts = Trace.counts_by_kind client_events in
  let count counts k = Option.value (List.assoc_opt k counts) ~default:0 in
  Report.table fmt
    ~header:[ "trace event"; "server"; "client" ]
    ~rows:
      (List.filter_map
         (fun k ->
           let s = count server_counts k and c = count client_counts k in
           if s = 0 && c = 0 then None
           else
             Some [ Trace.kind_name k; string_of_int s; string_of_int c ])
         Trace.all_kinds);
  List.iter
    (fun (name, tas) ->
      let tr = Tas.trace tas in
      Report.kv fmt
        (name ^ " trace events recorded / dropped")
        (Printf.sprintf "%d / %d" (Trace.recorded tr) (Trace.dropped tr)))
    [ ("server", t.server); ("client", t.client) ]

let health_gate fmt name tas =
  let report = Health.check (frames tas) in
  let fired =
    List.map
      (fun (r, n) -> Printf.sprintf "%s:%d" (Health.rule_name r) n)
      report.Health.by_rule
  in
  Report.gate fmt ~name:(name ^ "_health") ~ok:report.Health.passed
    ~observed:(if fired = [] then "none" else String.concat " " fired)
    ~expected:"no rule fires";
  (name, Health.report_to_json report)

let experiment ?(quick = false) fmt =
  Report.section fmt
    "Diagnostics: spans, cycles, trace rings, flows and health of one run";
  Report.note fmt
    "RPC echo with TAS on both hosts; every 16th packet origin starts a \
     causal span recorded at each hop (libTAS, fast path, NIC, link queues, \
     switch). Both hosts keep trace rings and 1 ms timelines; the flow \
     tables, merged metrics, health reports and a Chrome trace document \
     land in BENCH_dg.json";
  let t = build () in
  let duration_ns = duration_ns ~quick in
  run t ~duration_ns;
  let spans = Span.drain t.span in
  report_spans fmt t spans;
  report_rpcs fmt t ~duration_ns;
  let server_events = Trace.drain (Tas.trace t.server) in
  let client_events = Trace.drain (Tas.trace t.client) in
  report_trace fmt t ~server_events ~client_events;
  let server_health = health_gate fmt "server" t.server in
  let client_health = health_gate fmt "client" t.client in
  Report.attach "flows"
    (J.Obj [ ("server", Tas.flows t.server); ("client", Tas.flows t.client) ]);
  Report.attach "metrics"
    (J.List
       (List.map Metrics.sample_to_json
          (Metrics.merge
             [
               Metrics.snapshot (Tas.metrics t.server);
               Metrics.snapshot (Tas.metrics t.client);
             ])));
  Report.attach "health" (J.Obj [ server_health; client_health ]);
  Report.attach "chrome" (chrome_of t ~spans ~server_events ~client_events);
  List.iter
    (fun (name, tas) ->
      Option.iter
        (fun tl -> Report.add_timeline ~name (Timeline.to_json tl))
        (Tas.timeline tas))
    [ ("server", t.server); ("client", t.client) ]
