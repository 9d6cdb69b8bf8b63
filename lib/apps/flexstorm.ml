module Sim = Tas_engine.Sim
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core

type config = {
  tuple_size : int;
  worker_cycles : int;
  demux_cycles : int;
  mux_cycles : int;
  mux_batch_ns : int;
  wire_block : int;
  n_workers : int;
  shed_backlog_ns : int;
}

let default_config =
  {
    tuple_size = 128;
    worker_cycles = 700;
    demux_cycles = 150;
    mux_cycles = 100;
    mux_batch_ns = 10_000_000;
    wire_block = 11;
    n_workers = 2;
    shed_backlog_ns = 2_000_000;
  }

type t = {
  sim : Sim.t;
  config : config;
  demux : Core.t;
  workers : Core.t array;
  mux : Core.t;
  mutable worker_rr : int;
  out_queue : (int * Bytes.t) Queue.t;  (* (worker-done time, tuple) *)
  mutable timer_armed : bool;
  mutable draining : bool;
  mutable mux_charging : bool;
  mutable pending : (Bytes.t * int) option;  (* partially-sent block *)
  mutable out_conn : Transport.conn option;
  mutable shed : int;
  input_wait : Stats.Summary.t;
  processing : Stats.Summary.t;
  output_wait : Stats.Summary.t;
}

let create sim config ~demux ~workers ~mux =
  {
    sim;
    config;
    demux;
    workers;
    mux;
    worker_rr = 0;
    out_queue = Queue.create ();
    timer_armed = false;
    draining = false;
    mux_charging = false;
    pending = None;
    out_conn = None;
    shed = 0;
    input_wait = Stats.Summary.create ();
    processing = Stats.Summary.create ();
    output_wait = Stats.Summary.create ();
  }

let set_output t conn = t.out_conn <- Some conn
let input_wait t = t.input_wait
let processing t = t.processing
let output_wait t = t.output_wait

(* Mux pump: drain the output queue in wire-block chunks through the
   outgoing connection, respecting transmit-buffer backpressure. Draining
   starts when the batch timer fires and runs until the queue empties. *)
let rec pump t =
  match t.out_conn with
  | None -> ()
  | Some conn -> begin
    match t.pending with
    | Some (data, off) ->
      let n =
        Transport.send conn (Bytes.sub data off (Bytes.length data - off))
      in
      if off + n >= Bytes.length data then begin
        t.pending <- None;
        pump t
      end
      else t.pending <- Some (data, off + n)
      (* short write: resumed from the connection's on_sendable *)
    | None ->
      if Queue.is_empty t.out_queue then t.draining <- false
      else if not t.mux_charging then begin
        let k = min t.config.wire_block (Queue.length t.out_queue) in
        let block = Bytes.create (k * t.config.tuple_size) in
        for i = 0 to k - 1 do
          let done_t, tuple = Queue.take t.out_queue in
          Stats.Summary.add t.output_wait
            (float_of_int (Sim.now t.sim - done_t) /. 1000.0);
          Bytes.blit tuple 0 block (i * t.config.tuple_size) t.config.tuple_size
        done;
        t.mux_charging <- true;
        Core.run t.mux ~cycles:(k * t.config.mux_cycles) (fun () ->
            t.mux_charging <- false;
            t.pending <- Some (block, 0);
            pump t)
      end
  end

let enqueue_mux t done_t tuple =
  Queue.add (done_t, tuple) t.out_queue;
  if t.draining then ()
  else if not t.timer_armed then begin
    t.timer_armed <- true;
    ignore
      (Sim.schedule t.sim t.config.mux_batch_ns (fun () ->
           t.timer_armed <- false;
           t.draining <- true;
           pump t))
  end

let handle_input t data =
  let n_tuples = Bytes.length data / t.config.tuple_size in
  for i = 0 to n_tuples - 1 do
    let backlogged =
      Core.backlog_ns t.demux > t.config.shed_backlog_ns
      || Core.backlog_ns t.workers.(t.worker_rr) > t.config.shed_backlog_ns
      || Queue.length t.out_queue > 100_000
    in
    if backlogged then t.shed <- t.shed + 1
    else begin
      let tuple =
        Bytes.sub data (i * t.config.tuple_size) t.config.tuple_size
      in
      let arrived = Sim.now t.sim in
      Core.run t.demux ~cycles:t.config.demux_cycles (fun () ->
          let w = t.workers.(t.worker_rr) in
          t.worker_rr <- (t.worker_rr + 1) mod Array.length t.workers;
          let start = Sim.now t.sim in
          Stats.Summary.add t.input_wait
            (float_of_int (start - arrived) /. 1000.0);
          Core.run w ~cycles:t.config.worker_cycles (fun () ->
              Stats.Summary.add t.processing
                (float_of_int (Sim.now t.sim - start) /. 1000.0);
              enqueue_mux t (Sim.now t.sim) tuple))
    end
  done
