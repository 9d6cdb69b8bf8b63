(** Packet tracing: wrap any delivery function to record or print packets
    flowing past a point in the simulated network — tcpdump for the
    simulator. Used by the debugging examples and by tests asserting on
    wire-level behaviour. *)

type record = {
  at : Tas_engine.Time_ns.t;
  pkt : Tas_proto.Packet.t;
}

type t

val create : ?limit:int -> unit -> t
(** Keep at most [limit] records (default 10_000; older records drop). Each
    record holds a reference to its packet, released when the record is
    evicted or cleared. *)

val wrap :
  t -> Tas_engine.Sim.t -> (Tas_proto.Packet.t -> unit) ->
  Tas_proto.Packet.t -> unit
(** [wrap t sim deliver] records then forwards each packet. *)

val records : t -> record list
(** In capture order. *)

val count : t -> int

val clear : t -> unit
(** Drop every record, releasing its packet. *)

val matching :
  t -> (Tas_proto.Packet.t -> bool) -> record list

val matching_tuple : t -> Tas_proto.Addr.Four_tuple.t -> record list
(** Records belonging to one connection, in either direction (the tuple or
    its {!Tas_proto.Addr.Four_tuple.flip}). *)

val pp_record : Format.formatter -> record -> unit
(** One tcpdump-style line: time, addresses, flags, seq/ack, length. *)

val dump : ?tuple:Tas_proto.Addr.Four_tuple.t -> Format.formatter -> t -> unit
(** Print the capture; [tuple] restricts output to one connection
    (both directions), like a tcpdump host/port filter. *)
