(** Ethernet II frame header. *)

type t = {
  mutable dst : Addr.mac;
  mutable src : Addr.mac;
  mutable ethertype : int;  (** 0x0800 for IPv4. *)
}

val size : int
(** Wire size in bytes (14, untagged). *)

val ethertype_ipv4 : int

val write : t -> bytes -> off:int -> int
(** [write t buf ~off] serializes and returns the number of bytes written. *)

val read : bytes -> off:int -> t
(** @raise Invalid_argument if the buffer is too short. *)

val pp : Format.formatter -> t -> unit
