(** The fast path's flow lookup table: 4-tuple → per-flow state.

    Since the shard subsystem landed this is a thin instantiation of
    {!Tas_shard.Flow_shards} with {!Flow_state.t}: one hashtable shard per
    NIC receive queue, each operation routed to the shard the current RSS
    redirection table assigns the flow's hash, flows migrating between
    shards drain-in-place whenever the table is rewritten (core scaling,
    §3.4). Cross-core touches charge the accounting-only spinlock cost
    model (paper Table 2's lock line); the simulated timeline is never
    perturbed, so shard granularity never changes packet behavior. *)

type t = Flow_state.t Tas_shard.Flow_shards.t

val create : unit -> t
(** A single-shard table behind a private one-queue redirection table, for
    components without a NIC (tests, microbenchmarks). *)

val create_sharded : rss:Tas_shard.Rss_table.t -> unit -> t
(** One shard per queue of [rss] (the NIC's redirection table); installs
    the shard set as the table's migration consumer. *)

val add : t -> Tas_proto.Addr.Four_tuple.t -> Flow_state.t -> unit
(** Slow-path install; charges one remote lock acquisition. Stores the
    given tuple as the key (the slow path's own copy of the connection's
    tuple), never a probe. *)

val find : t -> Tas_proto.Addr.Four_tuple.t -> Flow_state.t
(** Owner-core lookup; charges one local lock acquisition. A miss returns
    {!Flow_state.absent}. Allocates nothing: the per-packet lookup passes
    the fast path's scratch probe tuple. *)

val remove : t -> Tas_proto.Addr.Four_tuple.t -> unit
val count : t -> int
val iter : t -> (Tas_proto.Addr.Four_tuple.t -> Flow_state.t -> unit) -> unit
(** Every flow with its stored tuple, shard by shard. *)

val num_shards : t -> int
val shard_count : t -> int -> int

val shard_of : t -> Tas_proto.Addr.Four_tuple.t -> int
(** The shard (= RSS queue) currently owning a tuple. *)

val shard_stats : t -> int -> Tas_shard.Flow_shards.shard_stats

val lock_cycles : t -> int
(** Spinlock cycles charged across all shards (accounting only). *)

val remote_lock_cycles : t -> int
(** The cross-core (install/remove/migration) share of {!lock_cycles}. *)

val migrated_flows : t -> int
(** Flows moved between shards by RSS rewrites. *)

val set_on_migrate :
  t -> (group:int -> from_q:int -> to_q:int -> moved:int -> unit) -> unit

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Per-shard [fp_shard_*] counters and [fp_shard_flows] gauges. *)

val dump : t -> Tas_telemetry.Json.t
(** All per-flow records as a JSON list (each {!Flow_state.to_json} plus its
    4-tuple), sorted by opaque id so output is deterministic regardless of
    hash-table iteration order — and therefore identical between sharded
    and single-table instances. *)
