(** Loss-recovery policy selector.

    The fast path has one ACK path for every kind (configured per stack
    instance via [Config.recovery_policy]); the kind decides only what
    cumulative progress and duplicate ACKs do:

    - [Reno]: the paper's §3.1 exception-1 behaviour — triple duplicate
      ACK triggers one go-back-N rewind ({!Reno}). The seed reference.
    - [Sack]: receiver advertises out-of-order runs as SACK blocks; the
      sender keeps a per-segment scoreboard and retransmits selectively
      ({!Rack_tlp.on_ack} over {!Scoreboard}).
    - [Rack_tlp]: [Sack] plus RACK time-based loss detection (a segment is
      lost once something sent [reo_wnd] later was delivered) and tail-loss
      probes so a dropped final segment does not wait out a full RTO
      ({!Rack_tlp}). *)

type kind = Reno | Sack | Rack_tlp

val name : kind -> string
(** ["reno"], ["sack"], ["rack-tlp"]. *)

val of_string : string -> kind option
(** Case-insensitive; accepts ["rack"], ["rack_tlp"] and ["rack-tlp"] for
    {!Rack_tlp}. *)

val all : kind list
