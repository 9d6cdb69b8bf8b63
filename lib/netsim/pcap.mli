(** Export captured packets in pcap format (the classic libpcap file
    format, readable by tcpdump/tshark/Wireshark), so simulated traces can
    be inspected with standard tooling.

    Timestamps use the capture's virtual nanoseconds (nanosecond-resolution
    pcap, magic 0xa1b23c4d). Packets are serialized through
    {!Tas_proto.Packet.to_wire}, i.e. with real checksums. *)

val to_bytes : Tap.record list -> bytes
(** A complete pcap file image for the given records. *)

val write_file : string -> Tap.record list -> unit
(** [write_file path records] writes the capture to [path]. *)

val write_tap :
  string -> ?tuple:Tas_proto.Addr.Four_tuple.t -> Tap.t -> unit
(** [write_tap path tap] = [write_file path] on the tap's (optionally
    tuple-filtered) records. *)

(** Reading back (for tests and inspection). *)
type parsed = {
  ts_ns : int;
  frame : bytes;
}

val parse : bytes -> parsed list
(** Parse a (nanosecond) pcap file image.
    @raise Invalid_argument on malformed input. *)
