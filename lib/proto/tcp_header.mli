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
  mutable sack : (Seq32.t * Seq32.t) list;
      (** RFC 2018 blocks, [(start, end)] half-open in sequence space,
          most recently updated first. At most 3 fit beside the timestamp
          option (the standard 40-byte option budget); [\[\]] adds zero
          wire bytes, so non-SACK stacks are byte-identical. *)
}
(** Mutable so that a pooled packet ({!Packet.take}) rewrites its header in
    place instead of allocating one per segment. The options are flat
    fields: a timestamped segment carries no option boxes. *)

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
(** A fresh header; [ts] is [(ts_val, ts_ecr)]. For cold paths (handshakes,
    tests); the data path refills a pooled header with {!fill}. *)

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
  sack:(Seq32.t * Seq32.t) list ->
  unit
(** Overwrite every field in place: timestamps present, the SYN options
    only when given. Allocates nothing, provided a caller that passes
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
