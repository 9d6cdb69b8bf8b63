(** The SACK-class recovery engine: SACK-based loss rules (RFC 2018
    blocks + RFC 6675), and under [Rack_tlp] RACK time-based loss
    detection + tail-loss probes (RFC 8985 flavour, simplified for the
    simulated stack).

    SACK: the fast path feeds every ACK (cumulative edge, SACK blocks,
    duplicate-ACK count) through {!on_ack} and then retransmits whatever
    the scoreboard marks lost — selectively, without rewinding the send
    sequence. Episodes are bracketed by [recovery_point]: one rate-cut
    signal per episode, ended when the cumulative ACK passes the
    [snd_nxt] recorded at entry. The [Sack] policy stops here.

    RACK: every delivery (cumulative or SACK) of a never-retransmitted
    segment advances [rack_ts], the latest transmit timestamp proven
    delivered. Any unsacked segment transmitted more than a reordering
    window [reo_wnd] before [rack_ts] is lost — no duplicate-ACK count
    needed, and retransmissions are re-detectable because their timestamp
    refreshes. A reordering timer (armed by the fast path from
    {!Scoreboard.oldest_unsacked_tx}) catches segments whose loss
    evidence arrives but whose window has not yet elapsed.

    TLP: while data is in flight a probe timer of one PTO (default
    [2 * srtt]) hangs over the connection; if it fires with no forward
    progress the highest unsacked segment is retransmitted, manufacturing
    the SACK/ACK feedback that lets RACK repair genuine tail losses at
    probe-timescale instead of RTO-timescale. *)

val reo_wnd_ns : srtt_ns:int -> int
(** The reordering window: [max (srtt/4) 1µs] (the RFC's srtt/4 starting
    value). *)

val pto_ns : srtt_ns:int -> int
(** The probe timeout: [max (2 * srtt) 1ms]. *)

val on_ack :
  State.t ->
  una:Tas_proto.Seq32.t ->
  snd_nxt:Tas_proto.Seq32.t ->
  sack:Tas_proto.Tcp_header.t ->
  dup_acks:int ->
  reo_wnd:int ->
  unit
(** Digest one ACK under the state's policy ([Sack] or [Rack_tlp]):
    advance the scoreboard to [una], apply the SACK blocks of the ACK's
    header [sack], run the dupthresh loss rule (plus the front-hole rule
    once [dup_acks] reaches {!Reno.dupthresh} without SACK evidence above
    the hole), and maintain the episode bracket against [snd_nxt]. Under
    [Rack_tlp] only, also update [rack_ts] from the delivered segments
    (Karn-filtered) and mark lost everything older than
    [rack_ts - reo_wnd]. The outcome lands in the state's [newly_sacked],
    [newly_lost], [rack_lost] (the segments the time rule marked; 0 under
    [Sack]), [entered] and [exited] fields. Allocates nothing. *)

val on_reo_timer : State.t -> now_ns:int -> reo_wnd:int -> srtt_ns:int -> int
(** The reordering timer fired: mark lost every candidate transmitted
    more than [reo_wnd + srtt] ago (one RTT of grace for feedback still
    in flight). Returns newly marked. *)
