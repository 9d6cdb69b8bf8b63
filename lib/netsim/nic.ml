module Packet = Tas_proto.Packet
module Span = Tas_telemetry.Span

let rss_table_size = Rss_table.default_size

type t = {
  sim : Tas_engine.Sim.t;
  ip : Tas_proto.Addr.ipv4;
  mac : Tas_proto.Addr.mac;
  num_queues : int;
  tx_port : Port.t;
  rss : Rss_table.t;
  pkt_pool : Packet.Pool.t;
  mutable rx_handler : queue:int -> Packet.t -> unit;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable rx_csum_drops : int;
  mutable span : Span.t;
  mutable span_origin : bool;
  mutable trace : Tas_telemetry.Trace.t;
}

let create sim ~ip ~mac ~num_queues ~tx_port () =
  if num_queues <= 0 then invalid_arg "Nic.create: need at least one queue";
  let t =
    {
      sim;
      ip;
      mac;
      num_queues;
      tx_port;
      rss = Rss_table.create ~size:rss_table_size ~num_queues ();
      pkt_pool =
        Packet.Pool.create
          ~recycle:(fun buf ->
            Tas_buffers.Buf_pool.give (Tas_buffers.Buf_pool.local ()) buf)
          ();
      rx_handler = (fun ~queue:_ _ -> ());
      rx_packets = 0;
      tx_packets = 0;
      rx_bytes = 0;
      tx_bytes = 0;
      rx_csum_drops = 0;
      span = Span.disabled ();
      span_origin = false;
      trace = Tas_telemetry.Trace.disabled ();
    }
  in
  t

let ip t = t.ip
let mac t = t.mac
let num_queues t = t.num_queues
let packet_pool t = t.pkt_pool
let set_rx_handler t f = t.rx_handler <- f

let set_span t ?(origin = false) span =
  t.span <- span;
  t.span_origin <- origin

let set_trace t trace = t.trace <- trace

let input_valid t pkt =
  t.rx_packets <- t.rx_packets + 1;
  t.rx_bytes <- t.rx_bytes + Packet.wire_size pkt;
  if Span.enabled t.span then begin
    let ts = Tas_engine.Sim.now t.sim in
    if pkt.Packet.span >= 0 then
      Span.record t.span ~ts ~id:pkt.Packet.span ~hop:Span.Nic_rx ~core:(-1)
        ~flow:(-1)
    else if t.span_origin then
      pkt.Packet.span <-
        Span.start t.span ~ts ~hop:Span.Nic_rx ~core:(-1) ~flow:(-1)
  end;
  let queue = Rss_table.queue_for_hash t.rss (Packet.flow_hash pkt) in
  t.rx_handler ~queue pkt

(* Hardware checksum-offload validation: frames whose simulated "checksum
   would not verify" flag is set never reach the host stack. *)
let input t pkt =
  if pkt.Packet.corrupt then begin
    t.rx_csum_drops <- t.rx_csum_drops + 1;
    Tas_telemetry.Trace.record t.trace ~ts:(Tas_engine.Sim.now t.sim)
      ~kind:Tas_telemetry.Trace.Csum_drop ~core:(-1) ~flow:(-1);
    Packet.release pkt
  end
  else input_valid t pkt

let transmit t pkt =
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + Packet.wire_size pkt;
  if pkt.Packet.span >= 0 then
    Span.record t.span ~ts:(Tas_engine.Sim.now t.sim) ~id:pkt.Packet.span
      ~hop:Span.Nic_tx ~core:(-1) ~flow:(-1);
  Port.enqueue t.tx_port pkt

let set_active_queues t n =
  if n < 1 || n > t.num_queues then
    invalid_arg "Nic.set_active_queues: out of range";
  Rss_table.set_active t.rss n

let rss t = t.rss
let queue_for_hash t h = Rss_table.queue_for_hash t.rss h
let rx_packets t = t.rx_packets
let tx_packets t = t.tx_packets
let rx_bytes t = t.rx_bytes
let tx_bytes t = t.tx_bytes
let rx_csum_drops t = t.rx_csum_drops

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  let c name help f = Metrics.counter_fn m ~labels ~help name f in
  c "nic_rx_packets" "packets delivered to the host" (fun () -> t.rx_packets);
  c "nic_tx_packets" "packets transmitted by the host" (fun () -> t.tx_packets);
  c "nic_rx_bytes" "wire bytes received" (fun () -> t.rx_bytes);
  c "nic_tx_bytes" "wire bytes transmitted" (fun () -> t.tx_bytes);
  c "nic_rx_csum_drops" "frames dropped by receive checksum validation"
    (fun () -> t.rx_csum_drops);
  Metrics.gauge_fn m ~labels ~help:"RSS queues currently in the redirection table"
    "nic_active_queues" (fun () -> float_of_int (Rss_table.active t.rss));
  Rss_table.register t.rss m ~labels ();
  Port.register t.tx_port m ~labels ()
