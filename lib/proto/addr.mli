(** Network addresses.

    IPv4 addresses and MAC addresses are stored as plain integers so they can
    be hashed and compared cheaply in flow tables. *)

type ipv4 = int
(** IPv4 address as a 32-bit value in host order. *)

type mac = int
(** MAC address as a 48-bit value. *)

type port = int
(** TCP port, 16-bit. *)

val ipv4_of_string : string -> ipv4
(** [ipv4_of_string "10.0.0.1"] parses a dotted quad.
    @raise Invalid_argument on malformed input. *)

val ipv4_to_string : ipv4 -> string

val pp_ipv4 : Format.formatter -> ipv4 -> unit
val pp_mac : Format.formatter -> mac -> unit

val host_ip : int -> ipv4
(** [host_ip i] is a conventional simulator address for host number [i]
    (10.x.y.z). *)

val host_mac : int -> mac
(** [host_mac i] is a conventional simulator MAC for host number [i]. *)

val host_id_of_ip : ipv4 -> int
(** Inverse of {!host_ip} — stands in for ARP resolution in the simulator. *)

(** A TCP connection 4-tuple: the one key type of every table keyed by a
    connection (the fast path's flow shards, the slow path's handshakes and
    flows, the baseline TCP stack's connections).

    The fields are mutable for one use only: a table owner keeps one scratch
    tuple, its probe, and writes a packet's header fields into it to look
    the packet's connection up without building a tuple per packet. Nothing
    else is ever written. A tuple stored in a table, as a key or in a
    record, is never mutated and is never a probe: an insert stores a tuple
    of its own ({!copy} of the probe where the fields came from one), and a
    probe is only ever passed to lookups and removals. *)
module Four_tuple : sig
  type t = {
    mutable local_ip : ipv4;
    mutable local_port : port;
    mutable peer_ip : ipv4;
    mutable peer_port : port;
  }

  val probe : unit -> t
  (** A fresh all-zero tuple: a table owner's scratch probe. *)

  val copy : t -> t
  (** A fresh tuple with the same fields: what an insert stores when its
      fields are in a probe. *)

  val flip : t -> t
  (** Swap local and peer: the tuple as seen from the other end. *)

  val equal : t -> t -> bool
  val hash : t -> int

  val sym_hash : t -> int
  (** Direction-symmetric flow hash: equal for a tuple and its [flip]. This
      is the hash symmetric receive-side scaling computes, so both
      directions of a connection land on the same NIC queue. *)

  val sym_hash_fields :
    local_ip:ipv4 -> local_port:port -> peer_ip:ipv4 -> peer_port:port -> int
  (** {!sym_hash} of the tuple with these fields, without building it: the
      per-packet RSS hash reads them straight from the headers. *)

  module Tbl : Hashtbl.S with type key = t
  (** Hash tables keyed by a tuple, hashed with {!hash}. *)

  val pp : Format.formatter -> t -> unit
end
