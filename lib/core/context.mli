(** Context queues: the shared-memory notification channel from the fast
    path to an application thread (paper §3.1/3.3).

    Each application thread typically owns one context, so it can poll a
    private queue instead of scanning shared payload buffers. Events are
    edge-triggered and coalesced per flow (at most one pending Readable and
    one pending Writable per flow), so a bounded queue of one slot per flow
    can never overflow — matching the paper's observation that context
    queues only fill when payload is queued for an application that will
    drain them soon. *)

type kind =
  | Readable
      (** New in-order payload (or EOF) is available in the flow's receive
          buffer. *)
  | Writable  (** ACKs freed transmit-buffer space. *)

type t

val create : id:int -> capacity:int -> t
(** A queue of [capacity] events. Posting and popping allocate nothing. *)

val id : t -> int

val post_readable : t -> Flow_state.t -> unit
(** Enqueue a Readable notification unless one is already pending for this
    flow; fires the waker if the queue was empty. *)

val post_writable : t -> Flow_state.t -> unit

val set_waker : t -> (unit -> unit) -> unit
(** [waker] is invoked whenever an event is posted to an empty queue — the
    kernel eventfd wakeup for a thread blocked in epoll. *)

val head_kind : t -> kind
(** Kind of the oldest pending event.
    @raise Invalid_argument when the queue is empty. *)

val pop : t -> Flow_state.t
(** Dequeue the oldest event, clearing its coalescing flag, and return its
    flow.
    @raise Invalid_argument when the queue is empty. *)

val pending : t -> int

val is_empty : t -> bool
(** No events queued (cheaper than [pending t = 0]). *)
