(* A fully-instrumented diagnostic scenario: TAS on BOTH ends of a star
   topology (one client host, one switch, one server host), with a single
   span collector wired into every hop a packet crosses —

     libTAS send -> fast-path TX -> NIC TX -> uplink queue/out
       -> switch forward -> downlink queue/out -> NIC RX
       -> fast-path RX -> context notify -> libTAS deliver

   so one sampled request produces a causal span covering the entire
   end-to-end path. This is what `tas_run trace` / `tas_run flows` /
   `tas_run top` and the "tr" experiment run. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
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

type t = {
  sim : Sim.t;
  span : Span.t;
  net : Topology.star;
  server : Tas.t;
  client : Tas.t;
  stats : Rpc_echo.stats;
}

let wire_endpoint span (ep : Topology.endpoint) =
  Nic.set_span ep.Topology.nic ~origin:true span;
  Port.set_span ep.Topology.uplink span;
  Port.set_span ep.Topology.downlink span

let client_tas sim ~nic ~span ~trace ~timeline_ns =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 16384;
      tx_buf_size = 16384;
      trace_enabled = trace;
      timeline_interval_ns = timeline_ns;
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

let build ?(sample_every = 16) ?(capacity = 65536) ?(n_conns = 8)
    ?(trace = false) ?(timeline_ns = 0) () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:8 () in
  let span = Span.create ~enabled:true ~sample_every ~capacity () in
  wire_endpoint span net.Topology.server;
  Array.iter (wire_endpoint span) net.Topology.clients;
  Switch.set_span net.Topology.switch span;
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_so ~total_cores:4 ~span ~timeline_ns
      ~tas_patch:(fun c -> { c with Config.trace_enabled = trace })
      ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size ~app_cycles:680;
  let server_tas =
    match server.Scenario.tas with
    | Some tas -> tas
    | None -> assert false (* Tas_so servers always carry a TAS instance *)
  in
  let client_tas, client_transport =
    client_tas sim ~nic:net.Topology.clients.(0).Topology.nic ~span ~trace
      ~timeline_ns
  in
  let stats = Rpc_echo.make_stats () in
  Rpc_echo.closed_loop_clients sim client_transport ~n:n_conns
    ~dst_ip:(Nic.ip net.Topology.server.Topology.nic)
    ~dst_port:7 ~msg_size ~pipeline:4 ~stagger_ns:5_000 ~stats ();
  { sim; span; net; server = server_tas; client = client_tas; stats }

let run t ~duration_ns = Sim.run ~until:duration_ns t.sim

let run_with_tick t ~duration_ns ~every_ns f =
  ignore (Sim.periodic t.sim every_ns (fun () -> f ()));
  Sim.run ~until:duration_ns t.sim

let chrome t ~spans =
  let host name tas =
    let frames = Option.map Tas_telemetry.Timeline.frames (Tas.timeline tas) in
    { Tas_telemetry.Chrome.name;
      events = Tas_telemetry.Trace.drain (Tas.trace tas);
      frames = Option.value frames ~default:[] }
  in
  Tas_telemetry.Chrome.to_json ~spans
    [ host "server" t.server; host "client" t.client ]

(* --- Cross-domain batch statistics ------------------------------------- *)

module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace

type batch_stats = {
  runs : int;
  jobs : int;
  completed : int;
  metrics : Metrics.sample list;
  trace_events : int;
  trace_counts : (Trace.kind * int) list;
}

(* One batch member: an independent diagnostics simulation (workload size
   varies with the run index so members are distinguishable) returning its
   host-merged telemetry. Runs on any pool domain — each domain builds its
   own sim, registries and trace rings. *)
let batch_member ~duration_ns i =
  let d = build ~n_conns:(4 + (2 * i)) ~trace:true () in
  run d ~duration_ns;
  let samples =
    Metrics.merge
      [ Metrics.snapshot (Tas.metrics d.server);
        Metrics.snapshot (Tas.metrics d.client) ]
  in
  let events =
    Trace.merge
      [ Trace.drain (Tas.trace d.server); Trace.drain (Tas.trace d.client) ]
  in
  let completed = Tas_engine.Stats.Counter.value d.stats.Rpc_echo.completed in
  (samples, events, completed)

let batch_stats ?(runs = 4) ~duration_ns () =
  let pool = Run_opts.pool () in
  let jobs = max 1 (min (Tas_parallel.Domain_pool.jobs pool) runs) in
  let results =
    Tas_parallel.Domain_pool.map pool ~f:(batch_member ~duration_ns)
      (Array.init runs (fun i -> i))
  in
  (* Submission-order merge: [Metrics.merge] output is sorted by
     (name, labels) and [Trace.merge] is a stable sort by timestamp, so the
     aggregate is byte-identical for any [jobs]. *)
  let metrics =
    Metrics.merge (Array.to_list (Array.map (fun (m, _, _) -> m) results))
  in
  let events =
    Trace.merge (Array.to_list (Array.map (fun (_, e, _) -> e) results))
  in
  {
    runs;
    jobs;
    completed = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 results;
    metrics;
    trace_events = List.length events;
    trace_counts = Trace.counts_by_kind events;
  }
