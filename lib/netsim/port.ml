module Sim = Tas_engine.Sim
module Packet = Tas_proto.Packet
module Ipv4_header = Tas_proto.Ipv4_header
module Span = Tas_telemetry.Span
module Fifo = Tas_buffers.Fifo

type t = {
  mutable span : Span.t;
  sim : Sim.t;
  rate_bps : float;
  delay : int;
  capacity : int;
  ecn_threshold : int option;
  (* Growable rings with [Packet.sentinel] as filler: the port sits on
     every packet's path twice (serialization, then propagation), so
     per-packet queue cells would dominate the allocation profile. *)
  queue : Packet.t Fifo.t;
  inflight : Packet.t Fifo.t;  (* serialized, now propagating; delivery is FIFO *)
  mutable queued_bytes : int;
  mutable transmitting : bool;
  mutable tx_pkt : Packet.t;  (* the one packet currently serializing *)
  mutable deliver : Packet.t -> unit;
  mutable tx_done_thunk : unit -> unit;  (* persistent: no per-packet closures *)
  mutable deliver_thunk : unit -> unit;
  mutable drops : int;
  mutable marks : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable busy_ns : int;
}

let rec create sim ~rate_bps ~delay ?(capacity_pkts = 1024) ?ecn_threshold () =
  let t =
    {
      span = Span.disabled ();
      sim;
      rate_bps;
      delay;
      capacity = capacity_pkts;
      ecn_threshold;
      queue = Fifo.create Packet.sentinel;
      inflight = Fifo.create Packet.sentinel;
      queued_bytes = 0;
      transmitting = false;
      tx_pkt = Packet.sentinel;
      deliver = ignore;
      tx_done_thunk = ignore;
      deliver_thunk = ignore;
      drops = 0;
      marks = 0;
      tx_packets = 0;
      tx_bytes = 0;
      busy_ns = 0;
    }
  in
  t.tx_done_thunk <- (fun () -> tx_done t);
  t.deliver_thunk <-
    (fun () ->
      (* Constant propagation delay: deliveries complete in push order. *)
      t.deliver (Fifo.pop t.inflight));
  t

and tx_done t =
  let pkt = t.tx_pkt in
  t.tx_pkt <- Packet.sentinel;
  t.queued_bytes <- t.queued_bytes - Packet.wire_size pkt;
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + Packet.wire_size pkt;
  span_hop t pkt Span.Port_out;
  (* Propagation delay, then hand to the far end. *)
  Fifo.push t.inflight pkt;
  Sim.post t.sim t.delay t.deliver_thunk;
  start_transmission t

and span_hop t pkt hop =
  if pkt.Packet.span >= 0 then
    Span.record t.span ~ts:(Sim.now t.sim) ~id:pkt.Packet.span ~hop ~core:(-1)
      ~flow:(-1)

and tx_time_ns t pkt =
  let bits = float_of_int (Packet.wire_size pkt * 8) in
  int_of_float (ceil (bits /. t.rate_bps *. 1e9))

and start_transmission t =
  if Fifo.length t.queue = 0 then t.transmitting <- false
  else begin
    let pkt = Fifo.pop t.queue in
    t.transmitting <- true;
    t.tx_pkt <- pkt;
    let tx = tx_time_ns t pkt in
    t.busy_ns <- t.busy_ns + tx;
    (* Fire-and-forget events: the two per-packet events of every link hop
       reuse the port's persistent thunks — a packet's full hop allocates
       nothing. *)
    Sim.post t.sim tx t.tx_done_thunk
  end

let set_deliver t f = t.deliver <- f
let set_span t span = t.span <- span

let enqueue t pkt =
  let qlen = Fifo.length t.queue + if t.transmitting then 1 else 0 in
  if qlen >= t.capacity then begin
    t.drops <- t.drops + 1;
    Packet.release pkt
  end
  else begin
    (* DCTCP marking: set CE when the instantaneous queue exceeds K and the
       packet is ECN-capable. The mark lands on a packet this queue owns
       alone, so a tapped original keeps its ECT codepoint. *)
    let pkt =
      match t.ecn_threshold with
      | Some k
        when qlen >= k
             && (pkt.Packet.ip.Ipv4_header.ecn = Ipv4_header.Ect0
                || pkt.Packet.ip.Ipv4_header.ecn = Ipv4_header.Ect1) ->
        t.marks <- t.marks + 1;
        let pkt = Packet.unshare pkt in
        pkt.Packet.ip.Ipv4_header.ecn <- Ipv4_header.Ce;
        pkt
      | _ -> pkt
    in
    span_hop t pkt Span.Port_q;
    Fifo.push t.queue pkt;
    t.queued_bytes <- t.queued_bytes + Packet.wire_size pkt;
    if not t.transmitting then start_transmission t
  end

let queue_len t = Fifo.length t.queue + if t.transmitting then 1 else 0
let drops t = t.drops
let marks t = t.marks
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes

let busy_ns t = t.busy_ns

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  let c name help f = Metrics.counter_fn m ~labels ~help name f in
  let g name help f = Metrics.gauge_fn m ~labels ~help name f in
  c "port_tx_packets" "packets fully transmitted" (fun () -> t.tx_packets);
  c "port_tx_bytes" "bytes fully transmitted" (fun () -> t.tx_bytes);
  c "port_drops" "packets tail-dropped at enqueue" (fun () -> t.drops);
  c "port_ecn_marks" "packets CE-marked at enqueue" (fun () -> t.marks);
  c "port_busy_ns" "cumulative transmission time" (fun () -> t.busy_ns);
  g "port_queue_pkts" "instantaneous queue depth" (fun () ->
      float_of_int (queue_len t));
  g "port_queue_bytes" "instantaneous queued bytes" (fun () ->
      float_of_int t.queued_bytes)
