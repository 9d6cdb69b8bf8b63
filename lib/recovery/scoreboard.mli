(** Sender-side retransmission scoreboard (RFC 6675 / RFC 8985 flavour).

    One entry per in-flight segment: sequence range, last transmit
    timestamp, and the sacked / lost / retransmitted markings that drive
    selective retransmission. The tracked segments span
    [[snd_una, snd_nxt)] in transmit order; cumulative ACKs trim them from
    the front, SACK blocks mark runs inside them.

    {b Representation.} A power-of-two ring of parallel [int array]s
    (start, length, transmit time, sacked/lost flags, retransmit count)
    with the oldest segment at its head: transmits push at the tail
    (doubling the ring when full), cumulative ACKs pop from the head.
    Live sacked and lost counts are kept up to date as markings change.
    A scoreboard that never transmitted (every Reno flow) shares one
    empty ring and owns no arrays. The ring is a companion structure of
    the flow, outside its arena record — the documented boxed side-table
    of the recovery subsystem.

    {b Invariant.} Tracked segments are ascending, disjoint and
    non-empty, and every sequence number the scoreboard is handed
    (segment starts, [una], SACK block edges) lies within 2{^31} of the
    tracked ones — TCP's own window assumption. Callers guarantee it by
    registering fresh segments in transmit order and forgetting them all
    on an RTO rewind. The scans below rely on it: the segments at or past
    a bound form a suffix, so a binary search finds where a scan stops.

    {b Cost} ([n] live segments; no operation allocates once the ring has
    grown to the flight): {!on_transmit} O(1) amortized; {!ack_to} O(popped);
    {!on_retransmit} O(log n); {!apply_sacks} O(log n + segments that
    start inside each block); {!mark_lost_dupthresh} O(1) with fewer than
    [dupthresh] sacked segments, else O(n); {!mark_front_lost},
    {!live_sacked}, {!live_lost} O(1); {!mark_lost_older_than} and
    {!oldest_unsacked_tx} O(log n + segments below the highest sacked
    edge); {!next_lost} O(1) when nothing is lost, else O(index of the
    lowest lost segment); {!last_unsacked} O(sacked segments at the
    top). *)

type t

val create : unit -> t

val reset : t -> unit
(** Forget every tracked segment (RTO rewind: the sender re-sends from
    [snd_una], re-registering segments as they go out). Cumulative
    counters survive. *)

val is_empty : t -> bool

(** {2 Transmit-side bookkeeping} *)

val on_transmit : t -> seq:Tas_proto.Seq32.t -> len:int -> now_ns:int -> unit
(** A fresh segment left the NIC: push it at the tracked tail. [seq]
    must be past every tracked segment and [len] positive. *)

val on_retransmit : t -> seq:Tas_proto.Seq32.t -> now_ns:int -> bool
(** A tracked segment (matched by its start sequence) was retransmitted:
    refresh its transmit timestamp, clear its lost marking and count the
    retransmission. [false] if no segment starts at [seq]. *)

(** {2 ACK-side updates} *)

val ack_to : t -> una:Tas_proto.Seq32.t -> int
(** Advance the cumulative-ACK edge: drop fully-acked segments (clipping
    one partially-acked straddler). Returns the latest transmit timestamp
    among the fully-acked never-retransmitted segments — the RACK
    delivery signal under Karn's rule — or [-1] when none qualify. *)

val apply_sacks : t -> Tas_proto.Tcp_header.t -> int
(** Mark every tracked segment wholly inside one of the header's SACK
    blocks as sacked, reading the blocks in place. Returns the number of
    segments newly sacked; {!sacked_tx} then reads the latest transmit
    timestamp among them. *)

val sacked_tx : t -> int
(** The latest transmit timestamp among the segments the last
    {!apply_sacks} newly sacked and never retransmitted ([-1] when none;
    Karn again). *)

(** {2 Loss marking} *)

val mark_lost_dupthresh : t -> dupthresh:int -> int
(** RFC 6675: an unsacked, never-retransmitted segment with at least
    [dupthresh] sacked segments above it is lost. Returns newly marked. *)

val mark_front_lost : t -> int
(** [dupthresh] duplicate ACKs arrived without enough SACK evidence above
    the hole: mark the first unsacked segment lost (0 or 1 newly marked). *)

val mark_lost_older_than : t -> threshold_ns:int -> int
(** RACK: every unsacked segment below the highest sacked edge whose last
    transmission is at or before [threshold_ns] is lost (retransmitted
    segments included — their refreshed timestamp is what is compared).
    No-op unless something has been sacked. Returns newly marked. *)

(** {2 Retransmission scan}

    Scans answer with a segment's index ([0] = oldest tracked, [-1] =
    none), read with {!seg_seq} and {!seg_len} before the scoreboard
    changes: no option or pair is built. *)

val next_lost : t -> int
(** Index of the lowest segment currently marked lost — the next
    selective retransmission — or [-1]. {!on_retransmit} clears the
    marking. *)

val last_unsacked : t -> int
(** Index of the highest in-flight segment not yet sacked — the
    tail-loss-probe target — or [-1]. *)

val seg_seq : t -> int -> Tas_proto.Seq32.t
(** [seg_seq t i] is the start of tracked segment [i]. *)

val seg_len : t -> int -> int
(** [seg_len t i] is the length of tracked segment [i]. *)

val oldest_unsacked_tx : t -> int
(** Earliest transmit timestamp among unsacked, unlost segments below the
    highest sacked edge — the RACK reordering-timer anchor — or [-1] when
    there is none (transmit timestamps are simulated times, never
    negative). *)

(** {2 Observation} *)

val live_segs : t -> int
val live_sacked : t -> int
val live_lost : t -> int

val cum_sacked : t -> int
(** Segments ever marked sacked (cumulative, survives {!reset}). *)

val cum_lost : t -> int
val cum_retx : t -> int

val to_json : t -> Tas_telemetry.Json.t
