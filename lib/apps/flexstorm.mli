(** FlexStorm-style real-time analytics node (paper §5.4).

    A node runs a demultiplexer thread that splits incoming TCP streams
    into fixed-size tuples and hands them to worker threads; processed
    tuples queue at a multiplexer thread that batches (up to a configured
    interval) before writing them to the node's outgoing connection.
    Tuples are shed when the pipeline falls behind — the backpressure a
    real deployment gets from finite socket buffers. *)

type config = {
  tuple_size : int;  (** 128 B in the paper's workload *)
  worker_cycles : int;  (** per-tuple processing (~0.35 µs) *)
  demux_cycles : int;
  mux_cycles : int;  (** per tuple at the multiplexer *)
  mux_batch_ns : int;  (** batch timer (paper: up to 10 ms) *)
  wire_block : int;  (** tuples per outgoing write *)
  n_workers : int;
  shed_backlog_ns : int;  (** input shedding threshold *)
}

val default_config : config

type t

val create :
  Tas_engine.Sim.t ->
  config ->
  demux:Tas_cpu.Core.t ->
  workers:Tas_cpu.Core.t array ->
  mux:Tas_cpu.Core.t ->
  t

val set_output : t -> Transport.conn -> unit
(** Wire the node's outgoing connection (to the next node or the sink). *)

val handle_input : t -> bytes -> unit
(** Feed raw stream bytes from an incoming connection. *)

val pump : t -> unit
(** Resume a stalled output (call from the connection's [on_sendable]). *)

val input_wait : t -> Tas_engine.Stats.Summary.t
(** Arrival → worker-start wait, µs. *)

val processing : t -> Tas_engine.Stats.Summary.t
(** Worker-start → worker-end, µs (includes worker queueing). *)

val output_wait : t -> Tas_engine.Stats.Summary.t
(** Worker-end → wire, µs. *)
