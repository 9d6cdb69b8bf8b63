(** A simulated TCP/IPv4/Ethernet packet.

    Packets travel through the network simulator as structured records (no
    per-hop reserialization — the simulator charges wire size for link
    transit). [to_wire]/[of_wire] produce and parse the real byte-level
    format, including the TCP pseudo-header checksum; they are exercised by
    the test suite and microbenchmarks to keep the structured form honest.

    {2 Ownership}

    A packet is an mbuf: the data path takes it from a {!Pool} (one per
    NIC, the analogue of a DPDK mempool), rewrites its headers in place and
    hands it on; the stage that consumes it releases it and it goes back
    to the pool it came from — even when that is the other host's NIC.

    - {b Take.} {!take} (or {!make}, for tests and fixtures) yields a
      packet with one reference, owned by the caller.
    - {b Hand on.} Passing a packet down the pipeline (NIC → port → fault
      stage → NIC → fast path) passes its reference; the sender does not
      touch it again.
    - {b Retain.} A stage that keeps a packet beyond handing it on calls
      {!retain} first and {!release} when done: [Tap] records, [Fault]
      duplicates, the slow path's deferred exception handling and
      [Fast_path.reinject].
    - {b Release.} Exactly one release per reference. The consumer
      releases: [Fast_path.process] after every verdict, including
      malformed drops, and [Tcp_engine.handle_packet] after every
      packet. Every drop site releases the packet it drops:
      [Port]'s tail drop, [Fault]'s uniform, bursty and blackout drops,
      [Nic]'s checksum drop, [Switch]'s missing route, and [Tap]'s
      eviction and [Tap.clear].
    - {b Never read after release.} A released packet may already carry
      another segment. {!release} and {!retain} raise [Invalid_argument]
      on a packet with no reference left, which catches double releases
      and most uses after release.
    - {b Mutate only what you own alone.} A stage that changes a packet
      ([Port]'s ECN mark, [Fault]'s corruption) first calls {!unshare},
      so a tapped original keeps its bytes. *)

type t = {
  eth : Eth_header.t;
  ip : Ipv4_header.t;
  tcp : Tcp_header.t;
  mutable payload : bytes;
  mutable span : int;
      (** span-trace id annotation, -1 when unsampled. Simulator metadata
          (the analogue of a driver mbuf field), not part of the wire
          format: [to_wire] ignores it and [of_wire] yields -1. *)
  mutable corrupt : bool;
      (** payload/checksum damage marker set by fault injection. The
          structured packet form carries no computed checksum, so the flag
          stands in for "the TCP checksum would not verify": NIC receive
          validation drops flagged packets, modelling hardware checksum
          offload. [make]/[of_wire]/[fill] yield [false]. *)
  mutable refs : int;
      (** reference count; use {!retain} and {!release}. 0 while the
          packet sits in its pool. *)
  mutable pooled : bool;
      (** whether the packet owns [payload] as a buffer-pool buffer, to be
          recycled through its pool's [recycle] when the last reference is
          released; set via {!mark_pooled}. *)
  home : pool;
      (** where {!release} returns the packet, as an mbuf's mempool. *)
}

and pool
(** A LIFO free list of packets. It has no cap: it holds at most the peak
    number of its packets in flight at once. *)

val make :
  src_mac:Addr.mac ->
  dst_mac:Addr.mac ->
  src_ip:Addr.ipv4 ->
  dst_ip:Addr.ipv4 ->
  ?ecn:Ipv4_header.ecn ->
  tcp:Tcp_header.t ->
  payload:bytes ->
  unit ->
  t
(** A fresh packet in no pool (its release returns it nowhere), with a
    consistent IP total length. Default ECN codepoint is ECT(0), as DCTCP
    senders mark all data packets ECN-capable. For tests and [perf_bench]
    fixtures; every stack takes its segments from its NIC's pool. *)

val sentinel : t
(** A zero-address packet that is never handed out: the filler of vacated
    slots in packet FIFOs and rings, and the "empty" answer of a pop,
    told apart with [==]. Nothing sends, fills, retains or releases it. *)

module Pool : sig
  type t = pool

  val create : ?recycle:(bytes -> unit) -> unit -> t
  (** [recycle] receives the payload of a packet whose last reference is
      released while it owns the payload ({!mark_pooled}); default
      [ignore]. *)

  val outstanding : t -> int
  (** Packets taken and not yet returned. *)

  val created : t -> int
  (** Packets [take] had to create. *)

  val held : t -> int
  (** Packets free in the pool. *)
end

val take : Pool.t -> t
(** A free packet of the pool, or a fresh one when none is free, with one
    reference. Its fields hold whatever its last use left: the taker
    rewrites the TCP header ({!Tcp_header.fill}) and then calls {!fill}.
    Allocates nothing once the pool is warm. *)

val fill :
  t ->
  src_mac:Addr.mac ->
  dst_mac:Addr.mac ->
  src_ip:Addr.ipv4 ->
  dst_ip:Addr.ipv4 ->
  ecn:Ipv4_header.ecn ->
  payload:bytes ->
  unit
(** Rewrite the Ethernet and IP headers and the payload in place, with the
    IP total length computed from the current TCP header; resets [span],
    [corrupt] and [pooled]. Allocates nothing. *)

val wire_size : t -> int
(** Bytes on the wire including Ethernet header (no FCS/preamble). *)

val payload_len : t -> int

val well_formed : t -> bool
(** Structural consistency: the IP total length matches the actual header
    and payload sizes and the protocol is TCP. Header-corrupting faults
    break exactly this invariant; the fast path validates it and drops
    malformed packets before touching flow state. *)

val flow_hash : t -> int
(** Deterministic hash of the 4-tuple, symmetric per direction as computed by
    receive-side scaling: used by NIC RSS to pick a queue. Read straight
    from the headers; allocates nothing. *)

val four_tuple_at_receiver : t -> Addr.Four_tuple.t
(** The connection key as seen by the host receiving this packet. *)

val write_tuple_at_receiver : t -> Addr.Four_tuple.t -> unit
(** [write_tuple_at_receiver pkt probe] writes {!four_tuple_at_receiver}'s
    fields into a table owner's scratch [probe] instead of building a
    tuple: the per-packet lookup allocates nothing. *)

val to_wire : t -> bytes
(** Serialize to wire format with correct IP and TCP checksums. *)

val of_wire : bytes -> t
(** Parse wire format into a packet in no pool.
    @raise Invalid_argument on corrupt input. *)

val tcp_checksum_ok : bytes -> bool
(** Validate the TCP checksum of a wire-format packet. *)

val mark_pooled : t -> unit
(** Mark the payload as owned by the packet: the final {!release} hands it
    to the home pool's [recycle]. No-op for empty payloads. *)

val retain : t -> unit
(** Add one reference, for a stage that keeps the packet beyond handing
    it on.
    @raise Invalid_argument if the packet has no reference left. *)

val release : t -> unit
(** Drop one reference. The last one recycles an owned payload and
    returns the packet to its home pool; the caller must not touch it
    afterwards.
    @raise Invalid_argument if the packet has no reference left (a double
    release or a use after release). *)

val unshare : t -> t
(** [unshare p] is a packet the caller may mutate, in exchange for one
    reference to [p]. When that is the only reference, [p] itself.
    Otherwise a private copy in no pool — fresh headers and a copied
    payload — and [p] is released once, so the other holders keep the
    original unchanged.
    @raise Invalid_argument if the packet has no reference left. *)

val set_payload : t -> bytes -> unit
(** Replace the payload by a same-length buffer the packet does not own,
    recycling the old one if it did. The caller must hold the only
    reference. *)

val pp : Format.formatter -> t -> unit
