(** Per-queue flow-table shards over an RSS redirection table.

    Hardware TAS partitions TCP state across fast-path cores: the NIC's RSS
    steering decides a flow's owning queue, and that queue's core touches
    the flow's state contention-free in the common case (paper §3.1). This
    module reproduces that partitioning for the simulated stack: one
    hashtable shard per receive queue, with every operation routed to the
    shard the {e current} redirection table assigns the flow's hash — so
    lookups always agree with installs and migrations.

    When the redirection table is rewritten ({!Rss_table.set_active}), the
    shard set migrates each remapped flow group's state drain-in-place:
    flows move between shards inside the rewrite, before the next packet of
    the group can arrive on its new queue, and the [on_migrate] hook reports
    every group movement (for trace events).

    Cross-core touches — slow-path install/remove and migration — charge a
    {e remote} spinlock acquisition; owner-core lookups charge a {e local}
    one ({!Spinlock}, accounting-only: the simulated timeline is never
    perturbed, which keeps sharded and single-table runs packet-for-packet
    identical).

    Polymorphic in the flow-state type: the concrete per-flow record lives
    above this library (in [tas_core]). *)

type 'v t

val create : rss:Rss_table.t -> absent:'v -> unit -> 'v t
(** One shard per [rss] queue, each lock costed at {!Spinlock.create}'s
    defaults; {!find} returns [absent] on a miss. Installs itself as the
    table's [on_move] consumer (see {!Rss_table.set_on_move}); create at
    most one shard set per redirection table. *)

val rss : 'v t -> Rss_table.t
val num_shards : 'v t -> int

val shard_of : 'v t -> Tas_proto.Addr.Four_tuple.t -> int
(** The shard (= RSS queue) currently owning a tuple. *)

val find : 'v t -> Tas_proto.Addr.Four_tuple.t -> 'v
(** Owner-core lookup; charges one local lock acquisition. A miss returns
    the [absent] value given to {!create}. Allocates nothing: the
    per-packet lookup passes its scratch probe tuple. *)

val add : 'v t -> Tas_proto.Addr.Four_tuple.t -> 'v -> unit
(** Slow-path install; charges one remote lock acquisition. The table
    stores the given tuple itself as the key: it must never be mutated
    afterwards (see {!Tas_proto.Addr.Four_tuple}). *)

val remove : 'v t -> Tas_proto.Addr.Four_tuple.t -> unit
(** Slow-path removal; charges one remote lock acquisition. *)

val count : 'v t -> int
(** Total flows, summed over shards. *)

val shard_count : 'v t -> int -> int

val iter : 'v t -> (Tas_proto.Addr.Four_tuple.t -> 'v -> unit) -> unit
(** All shards in index order (within a shard, hashtable order — sort
    before emitting anything that must be deterministic), each flow with
    its stored tuple. *)

val iter_shard :
  'v t -> int -> (Tas_proto.Addr.Four_tuple.t -> 'v -> unit) -> unit

val set_on_migrate :
  'v t -> (group:int -> from_q:int -> to_q:int -> moved:int -> unit) -> unit
(** Hook fired once per remapped group after its flows (possibly zero)
    moved shards. *)

val migrated_flows : 'v t -> int
(** Total flows moved between shards by RSS rewrites. *)

val lock_cycles : 'v t -> int
(** Spinlock cycles charged across all shards (cost model only). *)

val remote_lock_cycles : 'v t -> int
(** The cross-core (install/remove/migration) share of {!lock_cycles}. *)

val shard_lock_cycles : 'v t -> int -> int

(** Point-in-time per-shard counters (for introspection output). *)
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

val shard_stats : 'v t -> int -> shard_stats

val register :
  'v t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Register per-shard [fp_shard_*] counters and the [fp_shard_flows] gauge,
    one label set per shard ([shard="<i>"] plus [labels]). *)
