(** IPv4 header (no options — the TAS fast path treats IP options as an
    exception, and the datacenter packets it is built for never carry them). *)

(** ECN codepoint (RFC 3168): TAS relies on ECT marking and CE feedback for
    DCTCP-style congestion control. *)
type ecn = Not_ect | Ect0 | Ect1 | Ce

type t = {
  mutable src : Addr.ipv4;
  mutable dst : Addr.ipv4;
  mutable protocol : int;  (** 6 for TCP. *)
  mutable ttl : int;
  mutable ecn : ecn;
  mutable dscp : int;
  mutable ident : int;
  mutable total_length : int;  (** Header + payload, bytes. *)
}
(** Mutable so that a pooled packet is rewritten in place and an
    ECN-marking queue sets CE on a packet it owns. *)

val size : int
(** Wire size without options: 20 bytes. *)

val protocol_tcp : int

val write : t -> bytes -> off:int -> int
(** Serializes including a correct header checksum; returns bytes written. *)

val read : bytes -> off:int -> t
(** @raise Invalid_argument on short buffer or non-IPv4 version. *)

val checksum_ok : bytes -> off:int -> bool
val pp : Format.formatter -> t -> unit
