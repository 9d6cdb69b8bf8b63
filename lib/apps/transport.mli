(** Stack-agnostic transport interface.

    The paper's applications run unmodified on Linux and TAS (and, modified,
    on IX/mTCP). This record-of-functions plays the role of the sockets
    layer: the same application code drives the TAS stack, the CPU-charged
    baseline server models, and ideal (cost-free) client hosts. Each stack
    has one adapter, which builds a connection the same way for {!listen}
    and {!connect}. *)

type conn

type handlers = {
  on_connected : conn -> unit;
  on_data : conn -> bytes -> unit;
  on_sendable : conn -> unit;
  on_peer_closed : conn -> unit;
  on_closed : conn -> unit;
}
(** Which handler fires when depends on the stack:
    - [on_connected]: the handshake completed, on every stack.
    - [on_data]: in-order payload, on every stack. The server model
      delivers what arrived while the application was busy as one batch.
    - [on_sendable]: on the engine, each ACK that frees transmit space;
      on the server model and on TAS, only after a short {!send} armed it.
    - [on_peer_closed]: on the engine and the server model, the peer's FIN
      arriving before this side closed, or a reset of an open connection;
      a FIN after this side's {!close} fires nothing. On TAS, the EOF once
      every byte was delivered, whether or not this side closed first.
    - [on_closed]: on every stack, a failed connect: the peer refused it
      with an RST or never answered (the engine and the server model give
      up after 6 SYN retransmissions, TAS after its handshake retries).
      On TAS also once an open connection is gone; a reset fires nothing
      itself and is folded into the [on_closed] that follows. The engine
      and the server model fire it for nothing else. *)

val null_handlers : handlers

type t

val listen : t -> port:int -> (conn -> handlers) -> unit
val connect : t -> dst_ip:Tas_proto.Addr.ipv4 -> dst_port:int ->
  (conn -> handlers) -> unit

val send : conn -> bytes -> int
(** Bytes accepted, bounded by the free transmit buffer; 0 after {!close}. *)

val close : conn -> unit
(** Full close. On the server model it waits for the connection's queued
    sends to reach the engine, so a reply sent just before it is not
    lost. *)

val charge_app : conn -> int -> (unit -> unit) -> unit
(** Account application-level work (cycles) on the connection's core before
    continuing — a no-op on cost-free hosts. *)

val of_engine : Tas_baseline.Tcp_engine.t -> t
(** Ideal host: the full protocol with no CPU charges (client machines). *)

val of_server_model : Tas_baseline.Server_model.t -> t
(** Cost-charged server on a baseline stack (Linux / IX / mTCP profile). *)

val of_libtas :
  Tas_core.Libtas.t -> ctx_of_conn:(int -> int) -> t
(** Application on TAS via libTAS. [ctx_of_conn] maps a connection counter
    to a context (application thread); use [(fun i -> i mod n_threads)] for
    round-robin placement. *)
