(** TAS host assembly: dedicated fast-path cores + a slow-path core wired to
    a NIC, ready for applications to attach via {!Libtas}. *)

type t

val create :
  Tas_engine.Sim.t ->
  nic:Tas_netsim.Nic.t ->
  config:Config.t ->
  ?span:Tas_telemetry.Span.t ->
  unit ->
  t
(** Creates [config.max_fast_path_cores] fast-path cores (threads exist for
    the maximum; inactive ones block, §3.4) and one slow-path core, attaches
    the fast path to the NIC, and starts the slow path.

    [span] supplies a latency-span collector shared with the peer host and
    the network path (two-host tracing needs one collector for the whole
    topology); by default span tracing is off
    ({!Tas_telemetry.Span.disabled}). *)

val fast_path : t -> Fast_path.t
val slow_path : t -> Slow_path.t
val config : t -> Config.t
val fp_cores : t -> Tas_cpu.Core.t array
val sp_core : t -> Tas_cpu.Core.t

val metrics : t -> Tas_telemetry.Metrics.t
(** The instance's metrics registry. Fast path, slow path, NIC, per-core
    busy breakdowns, and (as they attach) applications all register here;
    export with {!Tas_telemetry.Metrics.to_json}. *)

val trace : t -> Tas_telemetry.Trace.t
(** The instance's trace ring (shared by fast and slow path). Disabled — a
    single boolean test per would-be event — unless
    [config.trace_capacity] is [Some]. *)

val span : t -> Tas_telemetry.Span.t
(** The instance's latency-span collector (see {!create}). *)

val timeline : t -> Tas_telemetry.Timeline.t option
(** The instance's timeline flight recorder, present when
    [config.timeline_interval_ns > 0]: a sim-periodic event captures a frame
    every interval — per-interval counter deltas, gauges, per-core
    utilization (fast-path, slow-path and any attached app cores),
    per-shard flow occupancy and arena occupancy. *)

val flows : t -> Tas_telemetry.Json.t
(** Point-in-time flow introspection: the simulated time, a per-shard
    summary (occupancy, lookups/installs/removes, migrations, lock cycles),
    every per-flow Table-3 record ({!Flow_table.dump}) and the slow path's
    connection-lifecycle event log, as one JSON object — what [ss -ti]
    would show for this host. *)

val pp_flows : Format.formatter -> t -> unit
(** Human-readable one-line-per-flow rendering of the same snapshot. *)

val cycle_breakdown : t -> (Tas_cpu.Core.category * int) list
(** Busy nanoseconds per module category, summed over the fast-path cores
    and the slow-path core — the simulation's analogue of the paper's
    per-module cycle breakdown (Tables 1 and 2). *)

val app :
  t ->
  app_cores:Tas_cpu.Core.t array ->
  api:Libtas.api ->
  Libtas.t
(** Attach an application (registers its contexts with the fast path). *)

val fp_busy_ns : t -> int
(** Total busy time across fast-path cores (CPU accounting). *)

(** Operational snapshot: the counters an operator would scrape. *)
type snapshot = {
  flows : int;  (** established flows in the fast-path table *)
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
  malformed_drops : int;  (** length-inconsistent packets dropped on rx *)
  rsts_sent : int;  (** RSTs generated by the slow path *)
  fp_busy_ms : float;
  sp_busy_ms : float;
}

val snapshot : t -> snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit
