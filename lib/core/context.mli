(** Context queues: the shared-memory notification channel from the fast
    path to an application thread (paper §3.1/3.3).

    Each application thread typically owns one context, so it can poll a
    private queue instead of scanning shared payload buffers. Events are
    edge-triggered and coalesced per flow (at most one pending Readable and
    one pending Writable per flow), so a context never holds more than two
    events per flow. The queue starts at 4,096 slots, enough for 2,048
    flows, and doubles in place when a post finds it full, so it never
    refuses an event. *)

type kind =
  | Readable
      (** New in-order payload (or EOF) is available in the flow's receive
          buffer. *)
  | Writable  (** ACKs freed transmit-buffer space. *)

type t

val create : id:int -> t
(** An empty queue of 4,096 slots. Posting and popping allocate nothing
    until a post finds the queue full and doubles it. *)

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
