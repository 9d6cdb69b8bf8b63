(** RPC echo application (paper §5.1): fixed-size request/response messages
    over persistent connections, plus the client harnesses used by the
    microbenchmarks — closed-loop, short-lived-connection, pipelined and
    unidirectional flood variants. *)

type stats = {
  completed : Tas_engine.Stats.Counter.t;  (** full RPCs finished *)
  latency_us : Tas_engine.Stats.Hist.t;  (** per-RPC latency *)
  connects : Tas_engine.Stats.Counter.t;  (** connections established *)
}

val make_stats : unit -> stats

val server :
  Transport.t -> port:int -> msg_size:int -> app_cycles:int -> unit
(** Echo server: for every complete [msg_size]-byte request, charge
    [app_cycles] of application work and send a [msg_size]-byte response.
    Handles partial and coalesced arrivals. *)

val sink_server :
  Transport.t -> port:int -> msg_size:int -> app_cycles:int ->
  received:Tas_engine.Stats.Counter.t -> unit
(** Receive-only server (Fig. 6 RX benchmark): counts complete messages and
    charges per-message application time, sends nothing back. *)

val flood_server :
  Transport.t -> port:int -> msg_size:int -> app_cycles:int ->
  sent:Tas_engine.Stats.Counter.t -> unit
(** Transmit-only server (Fig. 6 TX benchmark): upon a 1-byte start request
    on a connection, sends [msg_size]-byte messages back-to-back forever,
    charging per-message application time. *)

val closed_loop_clients :
  Tas_engine.Sim.t ->
  Transport.t ->
  n:int ->
  dst_ip:Tas_proto.Addr.ipv4 ->
  dst_port:int ->
  msg_size:int ->
  ?pipeline:int ->
  ?rpcs_per_conn:int ->
  ?stagger_ns:int ->
  ?start_at:Tas_engine.Time_ns.t ->
  ?stop_at:Tas_engine.Time_ns.t ->
  ?think_ns:int ->
  stats:stats ->
  unit ->
  unit
(** [n] connections, each keeping [pipeline] (default 1) requests in flight
    in a closed loop. With [rpcs_per_conn] set, a connection closes after
    that many RPCs and is immediately re-established — the short-lived
    connection benchmark of Fig. 5. [stagger_ns] spaces connection
    establishment to avoid an unrealistic synchronized SYN burst. *)

val flood_clients :
  Tas_engine.Sim.t ->
  Transport.t ->
  n:int ->
  dst_ip:Tas_proto.Addr.ipv4 ->
  dst_port:int ->
  msg_size:int ->
  unit ->
  unit
(** Connections that saturate their send buffers with [msg_size]-byte
    messages (drives {!sink_server}). *)

val sink_clients :
  Tas_engine.Sim.t ->
  Transport.t ->
  n:int ->
  dst_ip:Tas_proto.Addr.ipv4 ->
  dst_port:int ->
  received:Tas_engine.Stats.Counter.t ->
  msg_size:int ->
  unit ->
  unit
(** Connections that send one start byte then count received messages
    (drives {!flood_server}). *)
