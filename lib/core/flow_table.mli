(** The fast path's flow lookup table: 4-tuple → per-flow state.

    One hashtable holds every flow. The NIC's RSS redirection table
    assigns each flow's hash to a flow group and each group to a receive
    queue (paper §3.1); the table keeps a flow count per group and, per
    queue, the counters of a per-queue shard: lookups, installs, removes,
    migrations and lock-model cycles. A queue's occupancy is the sum of
    the counts of the groups currently mapped to it, so an RSS rewrite
    (core scaling, §3.4) moves no entry: {!move_group} only charges the
    remapped group's flows to the two queues' migration counters.

    The lock model is accounting only (paper Table 2's lock line): an
    owner-core lookup charges a local acquisition (24 cycles), a
    cross-core touch a remote one (96 cycles). The charges are never
    posted to a simulated core, so the timeline never depends on them. *)

type t

val create : rss:Tas_netsim.Rss_table.t -> t
(** An empty table whose per-queue counters follow [rss] (the NIC's
    redirection table), sized at 256 buckets per queue. *)

val add : t -> Tas_proto.Addr.Four_tuple.t -> Flow_state.t -> unit
(** Slow-path install; charges one remote lock acquisition to the owning
    queue. Stores the given tuple as the key (the slow path's own copy of
    the connection's tuple), never a probe. Re-adding a present tuple
    replaces its flow. *)

val find : t -> Tas_proto.Addr.Four_tuple.t -> Flow_state.t
(** Owner-core lookup; charges one local lock acquisition. A miss returns
    {!Flow_state.absent}. Allocates nothing: the per-packet lookup passes
    the fast path's scratch probe tuple. *)

val remove : t -> Tas_proto.Addr.Four_tuple.t -> unit
(** Slow-path removal; charges one remote lock acquisition, also when the
    tuple is absent. *)

val count : t -> int

val iter : t -> (Tas_proto.Addr.Four_tuple.t -> Flow_state.t -> unit) -> unit
(** Every flow with its stored tuple, in hashtable order (sort before
    emitting anything that must be deterministic). *)

val move_group : t -> group:int -> from_q:int -> to_q:int -> int
(** Account an RSS rewrite that remapped [group] from queue [from_q] to
    [to_q]: the group's flows count as migrated out of one and into the
    other, and a group holding flows charges a remote lock acquisition to
    each. Returns the group's flow count. Called from the redirection
    table's [on_move] hook. *)

val num_shards : t -> int
(** The redirection table's queue count. *)

val shard_count : t -> int -> int
(** Flows whose group the redirection table maps to a queue. *)

(** Point-in-time per-queue counters (for introspection output). *)
type shard_stats = {
  flows : int;
  lookups : int;
  installs : int;
  removes : int;
  migrations_in : int;
  migrations_out : int;
  lock_cycles : int;
  remote_lock_cycles : int;
}

val shard_stats : t -> int -> shard_stats

val lock_cycles : t -> int
(** Lock-model cycles charged across all queues (accounting only). *)

val remote_lock_cycles : t -> int
(** The cross-core (install/remove/migration) share of {!lock_cycles}. *)

val migrated_flows : t -> int
(** Flows remapped between queues by RSS rewrites. *)

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Per-queue [fp_shard_*] counters and [fp_shard_flows] gauges, one label
    set per queue ([shard="<i>"] plus [labels]). *)

val dump : t -> Tas_telemetry.Json.t
(** All per-flow records as a JSON list (each {!Flow_state.to_json} plus its
    4-tuple), sorted by opaque id so output is deterministic regardless of
    hash-table iteration order. *)
