(** Per-flow circular payload buffer (the [rx_start|size] / [tx_start|size]
    buffers of paper Table 3).

    The buffer is addressed by monotonically increasing *stream offsets*: the
    producer's high-water mark is [head], the consumer's is [tail], and any
    offset in [\[tail, tail + capacity)] maps to a physical slot. Addressing
    by stream offset (rather than physical index) lets the TAS fast path
    deposit out-of-order segments at their final position and lets the
    transmit path re-read unacknowledged data for retransmission.

    {b Only written bytes are ever read.} Every read ({!read_at}, {!pop})
    covers stream offsets written ({!push}, {!write_at}) since the buffer
    was created or last {!reset}: the TAS receive path reads only below
    [head], which only advances over deposited bytes, and the transmit path
    reads only bytes the application pushed. A fresh buffer's
    [Bytes.create] garbage and a recycled buffer's previous stream are
    therefore equally unobservable, which is what lets {!Pool} hand a ring
    to a new connection without clearing it. *)

type t

val create : int -> t
(** [create capacity] is an empty buffer. [capacity] must be positive. *)

val closed : t
(** The zero-capacity ring installed in a flow after teardown: [used] and
    [free] are 0, {!push} accepts nothing, and any non-empty access is out
    of window. A stale handle reads it instead of a ring that a newer
    connection may own. It holds no storage and never changes, so one
    value is shared. *)

val reset : t -> unit
(** Empty the buffer and restart its stream at offset 0 ([head = tail =
    0]). The old bytes stay in place but, by the invariant above, are
    never read. *)

val capacity : t -> int

val head : t -> int
(** Stream offset one past the last contiguous produced byte. *)

val tail : t -> int
(** Stream offset of the first unconsumed byte. *)

val used : t -> int
(** [head - tail]. *)

val free : t -> int
(** [capacity - used]. *)

val push : t -> bytes -> off:int -> len:int -> int
(** [push t b ~off ~len] copies at most [len] bytes at [head], advances
    [head], and returns the number of bytes accepted (possibly 0 when
    full). *)

val write_at : t -> pos:int -> bytes -> off:int -> len:int -> unit
(** [write_at t ~pos b ~off ~len] deposits bytes at stream offset [pos]
    without moving [head] — out-of-order deposit. The full range must lie
    within [\[tail, tail + capacity)].
    @raise Invalid_argument otherwise. *)

val advance_head : t -> int -> unit
(** Mark [n] more bytes (already deposited via [write_at]) as contiguous.
    @raise Invalid_argument if this would exceed [tail + capacity]. *)

val read_at : t -> pos:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Copy out of the buffer without consuming. The range must lie within
    [\[tail, head)] ∪ stored out-of-order region, i.e. within
    [\[tail, tail+capacity)].
    @raise Invalid_argument otherwise. *)

val pop : t -> dst:bytes -> dst_off:int -> len:int -> int
(** [pop t ~dst ~dst_off ~len] copies up to [len] contiguous bytes from
    [tail], advances [tail], and returns the count. *)

val advance_tail : t -> int -> unit
(** Discard [n] bytes from the tail (transmit-buffer reclamation on ACK,
    §3.1). @raise Invalid_argument if [n > used]. *)

(** Free list of rings for reuse across connections: one LIFO stack per
    capacity, no size limit. A pool retains exactly the rings given back
    and not yet taken, so its size is bounded by the peak number of rings
    live at once. {!Pool.take} and {!Pool.give} allocate nothing once a
    stack has room (a stack's array doubles when it fills). A pool is not
    synchronized: each owner (one TAS slow path) keeps its own. *)
module Pool : sig
  type ring := t
  type t

  val create : unit -> t

  val take : t -> int -> ring
  (** [take p capacity] pops a free ring of that capacity and {!reset}s
      it, or creates a fresh one when the stack is empty. *)

  val give : t -> ring -> unit
  (** Push a ring for reuse; the caller must not touch it afterwards.
      {!closed} is ignored, so releasing a torn-down flow again (its rings
      already swapped for {!closed}) gives nothing. *)

  val held : t -> int
  (** Rings currently free in the pool, all capacities. *)

  val allocated : t -> int
  (** Rings {!take} had to create fresh, all capacities. *)
end
