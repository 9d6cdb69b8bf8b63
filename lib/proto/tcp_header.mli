(** TCP header with the options TAS uses: MSS (on SYN), window scale (on
    SYN), timestamps (every segment; the fast path uses them for RTT
    estimation feeding congestion control, §3.1), and SACK blocks (on ACKs
    of receivers running a SACK-class recovery policy). *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  ece : bool;  (** ECN-echo: receiver feedback of CE marks (DCTCP). *)
  cwr : bool;
}

type t = {
  mutable src_port : Addr.port;
  mutable dst_port : Addr.port;
  mutable seq : Seq32.t;
  mutable ack : Seq32.t;
  mutable flags : flags;
  mutable window : int;
  mutable mss : int option;  (** MSS option (SYN only). *)
  mutable wscale : int option;  (** window-scale option (SYN only). *)
  mutable has_ts : bool;
      (** whether the timestamp option is present; [ts_val]/[ts_ecr] are
          meaningless (and not serialized) when it is not. *)
  mutable ts_val : int;
  mutable ts_ecr : int;
  mutable sack_n : int;
      (** SACK option blocks present, [0 .. max_sack_blocks]; 0 adds zero
          wire bytes, so non-SACK stacks are byte-identical. *)
  mutable sack_s0 : Seq32.t;
  mutable sack_e0 : Seq32.t;
  mutable sack_s1 : Seq32.t;
  mutable sack_e1 : Seq32.t;
  mutable sack_s2 : Seq32.t;
  mutable sack_e2 : Seq32.t;
      (** RFC 2018 blocks [i < sack_n]: [(sack_si, sack_ei)], half-open in
          sequence space, in wire order (a SACK receiver writes the most
          recently updated first). Read them with {!sack_start} and
          {!sack_end}; fields of blocks [>= sack_n] are 0. *)
}
(** Mutable so that a pooled packet ({!Packet.take}) rewrites its header in
    place instead of allocating one per segment. The options are flat
    fields: a timestamped segment carries no option boxes, and neither does
    a SACK-carrying one.

    {b SACK contract.} The option holds at most {!max_sack_blocks} blocks,
    the most that fit beside the timestamp option in the 40-byte option
    budget. A writer starts from an empty option ({!fill} and {!make}
    without [?sack] clear it) and appends blocks in wire order with
    {!add_sack_block}; a reader walks [0 .. sack_n - 1] with {!sack_start}
    and {!sack_end}. None of the three allocates. {!read} keeps the first
    {!max_sack_blocks} blocks of a longer option (a SACK receiver may use
    any subset of the blocks it is sent). *)

val mss : int
(** 1460: the segment size of every stack, TAS and the comparator engine
    alike, advertised as the SYN's MSS option. *)

val wscale : int
(** 4: the window-scale shift every stack advertises on its SYN
    (RFC 7323). *)

val max_sack_blocks : int
(** 3. *)

val add_sack_block : t -> Seq32.t -> Seq32.t -> unit
(** [add_sack_block t start stop] appends the block [\[start, stop)] to
    the SACK option. @raise Invalid_argument if it already holds
    {!max_sack_blocks}. *)

val sack_start : t -> int -> Seq32.t
(** [sack_start t i] is block [i]'s first sequence number.
    @raise Invalid_argument unless [0 <= i < t.sack_n]. *)

val sack_end : t -> int -> Seq32.t
(** [sack_end t i] is the sequence number just past block [i].
    @raise Invalid_argument unless [0 <= i < t.sack_n]. *)

val sack_blocks : t -> (Seq32.t * Seq32.t) list
(** Every block as [(start, end)], in wire order. For cold readers
    (tests, dumps): it allocates the list. *)

val no_flags : flags

val data_flags : flags
(** ACK + PSH: the common-case data segment. *)

val ack_flags : flags

val make :
  ?mss:int ->
  ?wscale:int ->
  ?ts:int * int ->
  ?sack:(Seq32.t * Seq32.t) list ->
  src_port:Addr.port ->
  dst_port:Addr.port ->
  seq:Seq32.t ->
  ack:Seq32.t ->
  flags:flags ->
  window:int ->
  unit ->
  t
(** A fresh header; [ts] is [(ts_val, ts_ecr)], [sack] the SACK blocks in
    wire order (at most {!max_sack_blocks}, else [Invalid_argument]). For
    tests and fixtures; every stack refills a pooled header with {!fill}. *)

val fill :
  ?mss:int ->
  ?wscale:int ->
  t ->
  src_port:Addr.port ->
  dst_port:Addr.port ->
  seq:Seq32.t ->
  ack:Seq32.t ->
  flags:flags ->
  window:int ->
  ts_val:int ->
  ts_ecr:int ->
  unit
(** Overwrite every field in place: timestamps present, the SYN options
    only when given, the SACK option empty (append blocks afterwards with
    {!add_sack_block}, before the packet's lengths are computed). Allocates nothing, provided a caller that passes
    [mss] or [wscale] passes an option it already holds
    ([?mss:some_mss]) rather than building one per segment. *)

val size : t -> int
(** Wire size: 20 bytes plus padded options. *)

val write : t -> bytes -> off:int -> int
(** Serializes (checksum field written as zero; TCP checksums over the
    pseudo-header are applied by {!Packet.to_wire}). Returns bytes written. *)

val read : bytes -> off:int -> t * int
(** [read buf ~off] parses and returns the header and its size in bytes.
    Unknown options are skipped.
    @raise Invalid_argument on short/corrupt input. *)

val pp : Format.formatter -> t -> unit
