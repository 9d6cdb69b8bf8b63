(** Datagram framing over TAS byte streams (paper §6, "Beyond TCP").

    The paper observes that most of TAS generalizes to message-oriented
    transports, and that adding datagram framing over the byte-stream
    abstraction is simple — the fast path keeps tracking only stream
    positions. This module is that extension: length-prefixed messages over
    a libTAS socket, delivered whole, with the reassembly state kept in
    user space (per §6's observation, the per-connection fast-path state is
    unchanged).

    Wire format: a 4-byte big-endian length followed by the payload. *)

type t

val max_message_size : int
(** 16 MiB: guards against corrupt lengths. *)

val attach :
  Libtas.socket ->
  on_message:(Libtas.socket -> bytes -> unit) ->
  t * Libtas.handlers
(** [attach sock ~on_message] returns framing state and the handlers to
    register for the socket (pass them as the socket's handlers, or call
    {!feed} from your own [on_data]). Messages are delivered exactly once,
    whole, in order. *)

val feed : t -> Libtas.socket -> bytes -> unit
(** Push raw stream bytes through the reassembler manually. *)

val send_message : Libtas.socket -> bytes -> bool
(** Frame and send one message. Returns false (sending nothing) if the
    whole frame does not fit in the transmit buffer — messages are never
    partially queued, so framing cannot desynchronize.
    @raise Invalid_argument if the message exceeds {!max_message_size}. *)

