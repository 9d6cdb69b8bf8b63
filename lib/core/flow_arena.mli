(** Off-heap arena of per-flow state records.

    The paper's Table 3 keeps all per-flow fast-path state in a compact
    102-byte record so a flow's entire working set fits in two cache lines.
    This module is the literal analogue: a single [Bigarray] allocation
    outside the OCaml heap, divided into 102-byte slots at fixed field
    offsets, with a free list for slot reuse. The GC never scans or moves
    it, and a live flow costs exactly [slot_bytes] bytes of state.

    Accessors are unboxed [int] getters/setters at fixed offsets; widths
    match the wire/table widths (u8/u16/u24/u32/u48/u64), so every field
    silently wraps at its declared width exactly like the C struct would.

    Slots carry a generation counter bumped on [free]: a stale handle can
    detect (and tests can assert) that a slot was recycled. *)

type t

val slot_bytes : int
(** Bytes per record: 102 (Table 3). *)

val create : ?capacity:int -> unit -> t
(** [capacity] slots (default 4096), one contiguous off-heap allocation. *)

val capacity : t -> int

val live : t -> int
(** Slots currently allocated. *)

val available : t -> int
(** Slots left before {!alloc} returns [None]. *)

val alloc : t -> int option
(** Pop a slot off the free list, zeroed except its generation counter.
    [None] when the arena is exhausted — the caller refuses the flow rather
    than falling back to heap allocation. *)

val free : t -> int -> unit
(** Return a slot to the free list and bump its generation. Raises
    [Invalid_argument] on a double free or an out-of-range slot. *)

val in_use : t -> int -> bool

val detach : t -> int -> t
(** [detach a slot] copies the slot's 102 bytes (generation included) into
    a fresh private one-slot arena, frees [slot] in [a] and returns the
    copy, whose record sits at slot 0. The copy is read and written
    through the same accessors, but it is closed to allocation and its
    slot never reads {!in_use}, so it can never be freed or handed out.
    Raises [Invalid_argument] unless [slot] is in use. *)

val generation : t -> int -> int
(** Recycling counter of a slot (u16, wraps). *)

(** {2 Field accessors}

    One getter/setter pair per Table-3 field, at the documented offset.
    Layout (byte offset, width):

    {v
      0  8  opaque        40  4  tx_span (i32)   66  2  dupack_cnt
      8  4  seq           44  4  rx_span (i32)   68  2  cnt_frexmits
     12  4  ack           48  4  ooo_start       70  6  peer_mac
     16  4  tx_sent       52  4  ooo_len         76  1  peer_wscale
     20  4  window        56  4  peer_ip         77  1  flags
     24  4  cnt_ackb      60  2  local_port      78  2  generation
     28  4  cnt_ecnb      62  2  peer_port       80  4  rx_head
     32  4  rtt_est       64  2  context         84  4  rx_tail
     36  4  ts_recent                            88  4  tx_head
                                                 92  4  tx_tail
                                                 96  3  rx_size
                                                 99  3  tx_size
    v} *)

val get_opaque : t -> int -> int
val set_opaque : t -> int -> int -> unit
val get_seq : t -> int -> int
val set_seq : t -> int -> int -> unit
val get_ack : t -> int -> int
val set_ack : t -> int -> int -> unit
val get_tx_sent : t -> int -> int
val set_tx_sent : t -> int -> int -> unit
val get_window : t -> int -> int
val set_window : t -> int -> int -> unit
val get_cnt_ackb : t -> int -> int
val set_cnt_ackb : t -> int -> int -> unit
val get_cnt_ecnb : t -> int -> int
val set_cnt_ecnb : t -> int -> int -> unit
val get_rtt_est : t -> int -> int
val set_rtt_est : t -> int -> int -> unit
val get_ts_recent : t -> int -> int
val set_ts_recent : t -> int -> int -> unit

val get_tx_span : t -> int -> int
(** Signed 32-bit: [-1] encodes "no span pending". *)

val set_tx_span : t -> int -> int -> unit
val get_rx_span : t -> int -> int
val set_rx_span : t -> int -> int -> unit
val get_ooo_start : t -> int -> int
val set_ooo_start : t -> int -> int -> unit
val get_ooo_len : t -> int -> int
val set_ooo_len : t -> int -> int -> unit
val get_peer_ip : t -> int -> int
val set_peer_ip : t -> int -> int -> unit
val get_local_port : t -> int -> int
val set_local_port : t -> int -> int -> unit
val get_peer_port : t -> int -> int
val set_peer_port : t -> int -> int -> unit
val get_context : t -> int -> int
val set_context : t -> int -> int -> unit
val get_dupack_cnt : t -> int -> int
val set_dupack_cnt : t -> int -> int -> unit
val get_cnt_frexmits : t -> int -> int
val set_cnt_frexmits : t -> int -> int -> unit
val get_peer_mac : t -> int -> int
val set_peer_mac : t -> int -> int -> unit
val get_peer_wscale : t -> int -> int
val set_peer_wscale : t -> int -> int -> unit

val get_flags : t -> int -> int
(** Packed booleans, bit layout: 0 in_recovery, 1 rx_notified,
    2 tx_notified, 3 tx_interest, 4 tx_timer_armed, 5 fin_received,
    6 fin_sent; bit 7 is unused. *)

val set_flags : t -> int -> int -> unit
val get_flag : t -> int -> bit:int -> bool
val set_flag : t -> int -> bit:int -> bool -> unit

val get_rx_head : t -> int -> int
val set_rx_head : t -> int -> int -> unit
val get_rx_tail : t -> int -> int
val set_rx_tail : t -> int -> int -> unit
val get_tx_head : t -> int -> int
val set_tx_head : t -> int -> int -> unit
val get_tx_tail : t -> int -> int
val set_tx_tail : t -> int -> int -> unit
val get_rx_size : t -> int -> int
val set_rx_size : t -> int -> int -> unit
val get_tx_size : t -> int -> int
val set_tx_size : t -> int -> int -> unit

val field_layout : (string * int * int) list
(** [(name, byte offset, byte width)] for every field above, in offset
    order — the machine-checkable Table-3 layout used by the docs and the
    round-trip property tests. *)
