(** Accounting-only spinlock cost model.

    Hardware TAS protects each flow-table entry with a per-flow spinlock;
    the lock line of paper Table 2 is its per-request cost. The simulator is
    single-threaded per instance, so the lock never blocks — this module
    only {e charges}: every acquisition accumulates a cycle cost into
    counters that experiments and metrics read. The accumulated cycles are
    deliberately never posted to a simulated core, so enabling or tuning the
    lock model cannot perturb the event timeline — sharded and single-table
    runs stay packet-for-packet identical.

    [local] acquisitions model the common case (the owning fast-path core,
    uncontended cache-hot CAS); [remote] acquisitions model the rare
    cross-core touches (slow-path flow install/remove, shard migration),
    which pay a cache-line transfer. *)

type t

val create : unit -> t
(** A lock charging 24 cycles per local acquisition and 96 per remote one
    (~Table 2's 0.2 kc/request lock line split over the per-packet
    acquisitions of one request). *)

val acquire : t -> remote:bool -> int
(** Charge one acquisition; returns the cycles charged. *)

val acquisitions : t -> int
val remote_acquisitions : t -> int

val cycles : t -> int
(** Total cycles charged (local + remote). *)

val remote_cycles : t -> int
(** Cycles charged for remote acquisitions only. *)
