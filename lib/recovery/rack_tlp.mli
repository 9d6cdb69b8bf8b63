(** RACK time-based loss detection + tail-loss probes (RFC 8985 flavour,
    simplified for the simulated stack).

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

val reo_wnd_ns : srtt_ns:int -> configured:int -> int
(** The reordering window: [configured] when positive, else
    [max (srtt/4) 1µs] (the RFC's srtt/4 starting value). *)

val pto_ns : srtt_ns:int -> configured:int -> int
(** The probe timeout: [configured] when positive, else
    [max (2 * srtt) 1ms]. *)

val on_ack :
  State.t ->
  una:Tas_proto.Seq32.t ->
  snd_nxt:Tas_proto.Seq32.t ->
  sack:Tas_proto.Tcp_header.t ->
  dup_acks:int ->
  reo_wnd:int ->
  unit
(** {!Sack.on_ack}'s digestion plus the RACK clock: update [rack_ts] from
    the delivered segments (Karn-filtered), then additionally mark lost
    everything older than [rack_ts - reo_wnd]. The outcome lands in the
    state's fields as for {!Sack.on_ack}, [rack_lost] counting the
    segments the time rule marked. Allocates nothing. *)

val on_reo_timer : State.t -> now_ns:int -> reo_wnd:int -> srtt_ns:int -> int
(** The reordering timer fired: mark lost every candidate transmitted
    more than [reo_wnd + srtt] ago (one RTT of grace for feedback still
    in flight). Returns newly marked. *)
