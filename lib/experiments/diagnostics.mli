(** The diagnostics scenario and the "dg" experiment: an RPC-echo workload
    with TAS on both the client and the server host of a star topology, one
    span collector wired into every hop (libTAS, fast path, NICs, link
    ports, switch) so sampled packets produce causal spans covering the
    full app-to-app path, and both hosts' trace rings and 1 ms timelines
    on. *)

type t = {
  sim : Tas_engine.Sim.t;
  span : Tas_telemetry.Span.t;
  net : Tas_netsim.Topology.star;
  server : Tas_core.Tas.t;
  client : Tas_core.Tas.t;
  stats : Tas_apps.Rpc_echo.stats;
}

val build : unit -> t
(** 8 connections of 64-byte echo RPCs pipelined 4 deep; spans sample 1
    packet origin in 16 into a 65,536-event ring; both hosts trace into
    65,536-event rings and record 1 ms timeline frames. Deterministic:
    every build yields the same event stream. *)

val run : t -> duration_ns:Tas_engine.Time_ns.t -> unit

val duration_ns : quick:bool -> Tas_engine.Time_ns.t
(** How long the "dg" experiment runs: 10 ms, 5 ms with [quick]. *)

val chrome : t -> spans:Tas_telemetry.Span.event list -> Tas_telemetry.Json.t
(** The Chrome trace-event document: the given (drained) span events, then
    the server's and the client's trace ring (drained here) and timeline
    frames, through {!Tas_telemetry.Chrome.to_json}. *)

val experiment : ?quick:bool -> Format.formatter -> unit
(** The "dg" experiment: one run of {!build} for {!duration_ns}. Prints the
    per-hop span table, throughput, latency, the server's cycle breakdown
    and trace counts per host; attaches both hosts' flow tables, their
    merged metrics, their health reports, the span summary and the
    {!chrome} document; stages both timelines for [TIMELINE_dg.json].
    Gates each host's health (no rule fires) and the span decomposition
    (hop sums equal end-to-end totals). *)
