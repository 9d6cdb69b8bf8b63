(** libTAS: the untrusted per-application user-space stack (paper §3.3).

    Presents a sockets-style interface over the fast path's context queues
    and per-flow payload buffers. Applications are event-driven: each
    application thread owns one context bound to one CPU core; notifications
    wake the thread, which drains its private context queue, paying the API
    cost per event. Two API flavours are modelled: POSIX-sockets emulation
    ([`Sockets`], the paper's unmodified-application path) and the IX-like
    low-level API ([`Lowlevel`], TAS LL in the evaluation), which differ in
    per-operation cycle cost. *)

type t
type socket

type handlers = {
  on_connected : socket -> unit;
  on_data : socket -> bytes -> unit;
      (** In-order payload, copied out of the flow's receive buffer. The
          buffer is borrowed: it is recycled through the payload pool as
          soon as the callback returns, so handlers must copy or fully
          parse it synchronously and must not retain a reference. *)
  on_sendable : socket -> unit;
      (** Space freed after a short [send]; armed by a partial send. *)
  on_peer_closed : socket -> unit;  (** EOF after all data was delivered. *)
  on_closed : socket -> unit;  (** Connection fully gone. *)
  on_connect_failed : socket -> Slow_path.conn_error -> unit;
      (** Connection attempt failed: handshake timeout, RST refusal, or a
          reset racing establishment (the errno of a failed [connect]).
          The socket is closed: no other event follows. *)
  on_reset : socket -> unit;
      (** Established connection aborted (peer RST or dead-flow reaping)
          before the app closed it — the ECONNRESET notification.
          [on_closed] follows. *)
}

val null_handlers : handlers

type api = Sockets | Lowlevel

val create :
  Tas_engine.Sim.t ->
  fast_path:Fast_path.t ->
  slow_path:Slow_path.t ->
  app_cores:Tas_cpu.Core.t array ->
  api:api ->
  unit ->
  t
(** One context (and context queue) per application core. *)

val listen : t -> port:int -> ctx_of_tuple:(Tas_proto.Addr.Four_tuple.t -> int)
  -> (socket -> handlers) -> unit
(** Listen and accept every connection; [ctx_of_tuple] places each accepted
    connection on a context (e.g. round-robin or hash — contexts are
    app-defined, §3.3). The callback supplies the socket's handlers. *)

val connect :
  t -> ctx:int -> dst_ip:Tas_proto.Addr.ipv4 -> dst_port:int -> handlers ->
  socket

val set_handlers : socket -> handlers -> unit
(** Replace the socket's handlers. Every event reaches the application
    through a queue, so handlers set right after {!connect} returns see
    all of the socket's events. *)

val send : socket -> bytes -> int
(** Copy bytes into the flow's transmit payload buffer and post a TX command;
    returns bytes accepted (0 before the handshake completes and after
    {!close}). Arms [on_sendable] when short. *)

val tx_free : socket -> int
(** Free transmit-buffer bytes (0 when not connected, and once the flow
    is torn down). *)

val want_sendable : socket -> unit
(** Explicitly arm an [on_sendable] notification for the next ACK that frees
    transmit space (EPOLLOUT subscription without a short write). *)

val close : socket -> unit
(** Closes the socket's sending side for the app at once: a later {!send}
    accepts nothing, [on_sendable] no longer fires, and a second [close]
    does nothing. The FIN follows the queued data. Like [shutdown(SHUT_WR)]
    the socket still receives: payload the peer sends before its FIN
    arrives as [on_data], its EOF as [on_peer_closed], and [on_closed]
    ends the socket (the split-TCP relay, [Pep_relay], closes one leg
    while the other direction still drains through it). A
    socket closed before its handshake completes gets no [on_connected];
    its flow is closed as soon as it is established. *)

val app_cycles : socket -> int -> (unit -> unit) -> unit
(** [app_cycles sock cycles k] charges application-level work on the
    socket's context core, then runs [k] — how applications account their
    own per-request processing. *)

type stats = {
  mutable events_dispatched : int;
  mutable sockets_opened : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
}

val stats : t -> stats

val register :
  t -> Tas_telemetry.Metrics.t -> ?labels:Tas_telemetry.Metrics.labels ->
  unit -> unit
(** Register this application's counters ([lt_*]) and an open-sockets gauge.
    Pass distinguishing [labels] (e.g. [("app", "0")]) when several
    applications share one registry. *)

val shutdown : t -> unit
(** Application exit: closes every socket the application holds and
    releases its context queues — the automatic cleanup the TAS slow path
    performs when it sees the process's UNIX-socket hangup (paper §4). *)
