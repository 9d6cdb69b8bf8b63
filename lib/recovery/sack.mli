(** SACK-based recovery engine (RFC 2018 blocks + RFC 6675 loss rules).

    Pure decision logic over {!State}/{!Scoreboard}: the fast path feeds
    every ACK (cumulative edge, SACK blocks, duplicate-ACK count) through
    {!on_ack} and then retransmits whatever the scoreboard marks lost —
    selectively, without rewinding the send sequence. Episodes are
    bracketed by [recovery_point]: one rate-cut signal per episode, ended
    when the cumulative ACK passes the [snd_nxt] recorded at entry. *)

val on_ack :
  State.t ->
  una:Tas_proto.Seq32.t ->
  snd_nxt:Tas_proto.Seq32.t ->
  sack:Tas_proto.Tcp_header.t ->
  dup_acks:int ->
  unit
(** Digest one ACK: advance the scoreboard to [una], apply the SACK blocks
    of the ACK's header [sack], run the dupthresh loss rule (plus the
    front-hole rule once [dup_acks] reaches {!Reno.dupthresh} without SACK
    evidence above the hole), and maintain the episode bracket against
    [snd_nxt]. The outcome lands in the state's [newly_sacked],
    [newly_lost], [entered] and [exited] fields ([rack_lost] reads 0).
    Allocates nothing. *)
