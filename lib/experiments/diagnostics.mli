(** The diagnostics scenario behind [tas_run flows] / [trace] / [top] and
    the "sp" experiment: an RPC-echo workload with TAS on both the client
    and the server host of a star topology, and one span collector wired
    into every hop (libTAS, fast path, NICs, link ports, switch), so
    sampled packets produce causal spans covering the full
    app-to-app path. *)

type t = {
  sim : Tas_engine.Sim.t;
  span : Tas_telemetry.Span.t;
  net : Tas_netsim.Topology.star;
  server : Tas_core.Tas.t;
  client : Tas_core.Tas.t;
  stats : Tas_apps.Rpc_echo.stats;
}

val build :
  ?sample_every:int ->
  ?capacity:int ->
  ?n_conns:int ->
  ?trace:bool ->
  ?timeline_ns:int ->
  unit ->
  t
(** Defaults: sample 1 packet in 16 per origin, 65536-event ring, 8
    connections of 64-byte pipelined (depth 4) echo RPCs. [trace] enables
    both hosts' structured trace rings (default off); [timeline_ns]
    (default 0 = off) turns on both hosts' timeline flight recorders at
    that frame interval. Deterministic: same parameters, same event
    stream. *)

val run : t -> duration_ns:Tas_engine.Time_ns.t -> unit

val run_with_tick :
  t ->
  duration_ns:Tas_engine.Time_ns.t ->
  every_ns:Tas_engine.Time_ns.t ->
  (unit -> unit) ->
  unit
(** Like {!run} but invokes the callback every [every_ns] of simulated time
    (the refresh driver for [tas_run top]). *)

val chrome : t -> spans:Tas_telemetry.Span.event list -> Tas_telemetry.Json.t
(** The document [tas_run trace] writes: the given (drained) span events,
    then the server's and the client's trace ring (drained here) and
    timeline frames, through {!Tas_telemetry.Chrome.to_json}. *)

(** Aggregated telemetry over a batch of independent diagnostics runs — the
    cross-domain view behind [tas_run stats]. *)
type batch_stats = {
  runs : int;
  jobs : int;  (** participants the batch could use: pool size, capped at [runs] *)
  completed : int;  (** RPCs finished, summed over runs *)
  metrics : Tas_telemetry.Metrics.sample list;
      (** {!Tas_telemetry.Metrics.merge} over every host registry of every
          run (counters/gauges summed, histograms combined) *)
  trace_events : int;
  trace_counts : (Tas_telemetry.Trace.kind * int) list;
      (** kind histogram of the merged trace streams *)
}

val batch_stats :
  ?runs:int -> duration_ns:Tas_engine.Time_ns.t -> unit -> batch_stats
(** Run [runs] (default 4) independent trace-enabled diagnostics
    simulations of increasing connection count, each for [duration_ns],
    and merge every host's metrics registry and trace ring into one
    report. The batch fans out over {!Run_opts.pool}; the merge is in
    submission order and the merged snapshot is sorted, so the result is
    byte-identical for any pool size. *)
