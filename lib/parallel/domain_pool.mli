(** Fixed-size domain pool with a claim-counter scheduler and a
    deterministic merge.

    A pool of [jobs] participants (the calling domain plus [jobs - 1] worker
    domains) runs batches of independent jobs. Participants claim a batch's
    jobs one index at a time from a shared counter; results are collected at
    each job's submission index, so the merged output is in submission
    order and parallel runs produce the same result sequence as serial
    runs, bit for bit.

    Jobs must be independent (no job may depend on another job of the same
    batch). A job may itself call {!map} on the same pool: idle workers help
    the inner batch, while the job's own domain runs only that batch's jobs
    until it has settled. Every job runs wholly on one domain: the domain
    that submitted its batch or a worker. So when batches are submitted
    only by the pool's creator and by its jobs, no more than [jobs]
    domains run the pool's jobs, however deep the nesting. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts a pool of [jobs] total participants ([jobs - 1]
    spawned domains). [jobs = 1] runs every batch inline on the calling
    domain with no worker domains.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Total participants, including the calling domain. *)

val map_result : t -> f:('a -> 'b) -> 'a array -> ('b, exn) result array
(** [map_result t ~f inputs] runs [f] on every input, in parallel across the
    pool, and returns per-input results in submission order. A raising job
    yields [Error] at its index and never deadlocks or poisons the pool. *)

val map : t -> f:('a -> 'b) -> 'a array -> 'b array
(** Like {!map_result}, but re-raises the first (by submission order) job
    exception after the whole batch has settled. *)

val shutdown : t -> unit
(** Join all worker domains. The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'b) -> 'b
(** [with_pool ~jobs f] is [f pool] with {!shutdown} guaranteed on exit. *)
