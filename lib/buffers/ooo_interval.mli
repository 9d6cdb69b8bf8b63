(** Out-of-order receive tracking (paper §3.1, Exceptions).

    The TAS fast path keeps a bounded set of out-of-order intervals per
    flow. In the paper's (default) configuration the bound is one —
    [ooo_start|len] in Table 3: a new out-of-order segment is accepted
    only if it fits the receive window and touches (overlaps or abuts) a
    tracked interval — or a table slot is free. When the in-order stream
    reaches the lowest interval, the whole contiguous run is delivered as
    one big segment.

    With [max_ranges > 1] (the SACK receiver configuration) several
    disjoint intervals are tracked; they double as the flow's SACK blocks
    ({!sack_blocks}), and a full table evicts the interval furthest from
    the expected edge when a closer segment arrives (the sender's
    retransmission machinery re-covers evicted data). [max_ranges = 1]
    preserves the paper's drop-only semantics exactly. [max_ranges = 0]
    tracks nothing: only in-order data is accepted and every
    out-of-order segment is dropped — the go-back-N receiver of the
    paper's Fig. 7 ablation. *)

type t
(** {b Representation.} One [int array] of [3 * max_ranges] slots (start,
    length, recency stamp per interval), allocated at the first
    out-of-order store; until then every interval set shares one empty
    array, so a flow that never reorders (every Reno flow in a clean run)
    owns none. {!handle}, {!in_order} and {!write_sack} allocate nothing. *)

(** What the fast path should do with an arriving segment. *)
type verdict =
  | Deliver
      (** In-order (possibly after trimming a duplicated prefix): deposit
          {!write_len} bytes at {!write_at} and advance the contiguous
          stream by {!advance} bytes — [advance >= write_len] when the
          segment bridges the gap to stored interval(s). *)
  | Store
      (** Out-of-order but buffered: deposit {!write_len} bytes at
          {!write_at} without advancing the stream. *)
  | Duplicate  (** Entirely old data: just (re-)acknowledge. *)
  | Drop  (** Unbufferable out-of-order data: drop, triggering dup-ACKs. *)

val create : ?max_ranges:int -> unit -> t
(** [max_ranges] (default 1) bounds the tracked intervals.
    @raise Invalid_argument if [max_ranges < 0]. *)

val is_empty : t -> bool

val interval : t -> (Tas_proto.Seq32.t * int) option
(** The lowest tracked [(start, length)] interval, if any (the Table-3
    shadow field). *)

val ranges : t -> (Tas_proto.Seq32.t * int) list
(** Every tracked [(start, length)] interval, ascending. *)

val sack_blocks :
  t -> limit:int -> (Tas_proto.Seq32.t * Tas_proto.Seq32.t) list
(** Up to [limit] [(start, end)] blocks, most recently updated first —
    the RFC 2018 ordering for the ACK's SACK option. For cold readers;
    the data path uses {!write_sack}. *)

val write_sack : t -> Tas_proto.Tcp_header.t -> unit
(** Append [sack_blocks t ~limit:Tcp_header.max_sack_blocks] to the
    header's SACK option, in the same order, without building the list.
    The header's option should be empty (as {!Tas_proto.Tcp_header.fill}
    leaves it); blocks beyond its room are not written. *)

val handle :
  t ->
  exp:Tas_proto.Seq32.t ->
  window:int ->
  seg_start:Tas_proto.Seq32.t ->
  seg_len:int ->
  verdict
(** [handle t ~exp ~window ~seg_start ~seg_len] decides the fate of a
    segment given the next expected sequence number [exp] and [window] free
    receive-buffer bytes starting at [exp]. Updates the interval state.
    A [Deliver] or [Store] verdict's extent, already trimmed to the
    acceptable window, is read with {!write_at}, {!write_len} and
    {!advance} before the next call. *)

val write_at : t -> Tas_proto.Seq32.t
(** Where the last [Deliver] or [Store] verdict deposits its bytes. *)

val write_len : t -> int
(** How many bytes the last [Deliver] or [Store] verdict deposits. *)

val advance : t -> int
(** How far the last [Deliver] verdict advances the in-order stream (0
    after a [Store]). *)

val in_order :
  t -> exp:Tas_proto.Seq32.t -> window:int -> seg_start:Tas_proto.Seq32.t ->
  seg_len:int -> int
(** The common case of {!handle}, leaving the verdict fields alone: when
    [seg_start = exp], nothing is stored and [n = min seg_len window] is
    positive, returns [n], the case where {!handle} would answer
    [Deliver] with [write_at = exp] and [write_len = advance = n] and
    change nothing. Otherwise 0: the caller asks {!handle}. *)

val reset : t -> unit
(** Forget any stored intervals (connection reset / reassignment). *)
