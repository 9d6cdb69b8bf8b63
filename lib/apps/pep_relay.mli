(** Split-TCP performance-enhancing proxy (RFC 3135).

    A PEP host terminates each client connection locally and opens a
    separate onward connection to the real server, pumping bytes between
    the two with backpressure: data that the onward side will not yet
    accept is parked in a bounded-growth byte queue and drained on
    [on_sendable], so a slow leg throttles the fast one instead of being
    overrun. Each leg runs its own loss recovery over its own RTT — the
    WAN leg's retransmissions never traverse the LAN leg.

    Close handling is relay-shaped: when one side's peer closes, the relay
    finishes draining that direction's queue and then closes the onward
    side, so no accepted byte is lost. (True half-close is not modeled —
    matching {!Transport.close}'s full-close semantics.) A pair is retired
    only on [on_closed], which only TAS fires ({!Transport.handlers}), so
    both [front] and [back] must be TAS transports; every [wan] PEP run
    uses TAS on both sides. *)

type stats = {
  mutable accepted : int;  (** client connections accepted *)
  mutable active : int;  (** pairs with at least one side still open *)
  mutable c2s_in : int;  (** bytes received from clients *)
  mutable c2s_out : int;  (** bytes forwarded to the server *)
  mutable s2c_in : int;  (** bytes received from the server *)
  mutable s2c_out : int;  (** bytes forwarded to clients *)
  mutable peak_buffered : int;
      (** high-water mark of bytes parked in any one direction's queue *)
  mutable closed_pairs : int;  (** pairs fully torn down *)
}

val conserved : stats -> bool
(** Every byte accepted from one side was forwarded to the other: the
    relay's conservation invariant once traffic has drained. *)

val attach :
  front:Transport.t ->
  listen_port:int ->
  back:Transport.t ->
  dst_ip:Tas_proto.Addr.ipv4 ->
  dst_port:int ->
  unit ->
  stats
(** Start relaying: listen on [front]'s [listen_port]; for every accepted
    connection, connect through [back] to [dst_ip:dst_port] and pump both
    directions until either side closes. Returns the live counters. *)
