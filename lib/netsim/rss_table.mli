(** First-class RSS redirection table: flow group → receive queue.

    The NIC hashes each arriving packet's 4-tuple and reduces it modulo
    [size] to a {e flow group}; the table maps every group to one of
    [num_queues] receive queues (each owned by a fast-path core). Scaling
    the fast path rewrites the table eagerly (paper §3.4): {!set_active}
    respreads all groups over the first [n] queues and reports each
    remapped group through the [on_move] hook, which the fast path uses to
    account the group's flows as migrated between queues at the rewrite,
    before the next packet of the group arrives on the new queue.

    The default 128-entry table and the [group mod n] spread reproduce the
    seed NIC's steering function exactly. *)

type t

val default_size : int
(** 128 — the redirection-table size of the paper's NICs. *)

val create : ?size:int -> num_queues:int -> unit -> t
(** All [size] groups spread over all [num_queues] queues ([g mod
    num_queues]), all queues active.
    @raise Invalid_argument if [size] or [num_queues] is not positive. *)

val size : t -> int
val num_queues : t -> int

val active : t -> int
(** Queues currently receiving traffic (set by the last {!set_active};
    initially [num_queues]). *)

val group_of_hash : t -> int -> int
(** The flow group of a flow hash ([hash mod size], non-negative). *)

val queue_of_group : t -> int -> int
val queue_for_hash : t -> int -> int

val set_active : t -> int -> unit
(** Rewrite the table to spread all groups over the first [n] queues.
    Remapped groups fire [on_move] in ascending group order; unchanged
    groups fire nothing.
    @raise Invalid_argument if [n] is not within [1, num_queues]. *)

val set_on_move : t -> (group:int -> from_q:int -> to_q:int -> unit) -> unit
(** Hook invoked for every group remapped by {!set_active}, after the table
    entry is updated (a lookup inside the hook already sees the new
    queue). Single consumer: the fast path, which charges the group's flows
    to the two queues' migration counters in its flow table. *)

val rewrites : t -> int
(** Table rewrites performed ({!set_active} calls). *)

val groups_moved : t -> int
(** Total groups remapped across all rewrites. *)

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Register [nic_rss_rewrites] / [nic_rss_groups_moved] counters. *)
