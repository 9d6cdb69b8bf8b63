(* Integration tests of the baseline TCP engine over the network simulator. *)

module Sim = Tas_engine.Sim
module Rng = Tas_engine.Rng
module Time_ns = Tas_engine.Time_ns
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Packet = Tas_proto.Packet
module Seq32 = Tas_proto.Seq32
module E = Tas_baseline.Tcp_engine
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Config = Tas_core.Config
module Core = Tas_cpu.Core

let make_pair ?spec ?fault ?rng ?(config = E.default_config) () =
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ?spec ?fault_ab:fault ?fault_ba:fault ?rng ()
  in
  let a = E.create sim net.Topology.a.Topology.nic config in
  let b = E.create sim net.Topology.b.Topology.nic config in
  E.attach a;
  E.attach b;
  (sim, a, b)

(* Echo server on [b]; send [payload] from [a]; expect it echoed back. *)
let run_echo ?spec ?fault ?rng ?config ~payload () =
  let sim, a, b = make_pair ?spec ?fault ?rng ?config () in
  let received_at_b = Buffer.create 64 and received_at_a = Buffer.create 64 in
  E.listen b ~port:7 (fun _conn ->
      {
        E.null_callbacks with
        E.on_receive =
          (fun conn data ->
            Buffer.add_bytes received_at_b data;
            ignore (E.send conn data));
      });
  let sent = ref 0 in
  let conn = ref None in
  let cb =
    {
      E.null_callbacks with
      E.on_connected =
        (fun c ->
          sent := E.send c payload;
          ignore !sent);
      E.on_receive = (fun _ data -> Buffer.add_bytes received_at_a data);
    }
  in
  conn :=
    Some
      (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:7 cb);
  Sim.run ~until:(Tas_engine.Time_ns.sec 5) sim;
  (Buffer.contents received_at_b, Buffer.contents received_at_a)

let test_handshake_and_echo () =
  let payload = Bytes.of_string "hello, TAS world!" in
  let at_b, at_a = run_echo ~payload () in
  Alcotest.(check string) "server got payload" "hello, TAS world!" at_b;
  Alcotest.(check string) "client got echo" "hello, TAS world!" at_a

let test_bulk_transfer () =
  let n = 500_000 in
  let payload = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
  let sim, a, b = make_pair () in
  let received = Buffer.create n in
  E.listen b ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ data -> Buffer.add_bytes received data);
      });
  let pending = ref (Bytes.length payload) in
  let offset = ref 0 in
  let push c =
    if !pending > 0 then begin
      let chunk = Bytes.sub payload !offset (min 16384 !pending) in
      let n = E.send c chunk in
      offset := !offset + n;
      pending := !pending - n
    end
  in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> push c);
      E.on_sendable = (fun c _ -> push c);
    }
  in
  ignore (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:9 cb);
  Sim.run ~until:(Tas_engine.Time_ns.sec 10) sim;
  Alcotest.(check int) "all bytes delivered" n (Buffer.length received);
  Alcotest.(check string)
    "content is intact" (Bytes.to_string payload) (Buffer.contents received)

let bulk_under_loss loss_rate =
  let n = 200_000 in
  let payload = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
  let rng = Rng.create 42 in
  let sim, a, b = make_pair ~fault:(Fault.uniform_loss loss_rate) ~rng () in
  let received = Buffer.create n in
  E.listen b ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ data -> Buffer.add_bytes received data);
      });
  let pending = ref n and offset = ref 0 in
  let push c =
    while
      !pending > 0
      &&
      let chunk = Bytes.sub payload !offset (min 8192 !pending) in
      let accepted = E.send c chunk in
      offset := !offset + accepted;
      pending := !pending - accepted;
      accepted > 0
    do
      ()
    done
  in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> push c);
      E.on_sendable = (fun c _ -> push c);
    }
  in
  ignore (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:9 cb);
  Sim.run ~until:(Tas_engine.Time_ns.sec 30) sim;
  Alcotest.(check int) "all bytes delivered" n (Buffer.length received);
  Alcotest.(check string)
    "stream intact under loss" (Bytes.to_string payload)
    (Buffer.contents received)

let test_loss_full_ooo () = bulk_under_loss 0.02
let test_heavy_loss () = bulk_under_loss 0.10

let test_close_handshake () =
  let sim, a, b = make_pair () in
  let b_closed = ref false and a_closed = ref false in
  E.listen b ~port:5 (fun _ ->
      {
        E.null_callbacks with
        E.on_closed =
          (fun c ->
            b_closed := true;
            E.close c);
      });
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> E.close c);
      E.on_closed = (fun _ -> a_closed := true);
    }
  in
  ignore (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:5 cb);
  Sim.run ~until:(Tas_engine.Time_ns.sec 2) sim;
  Alcotest.(check bool) "server saw close" true !b_closed;
  Alcotest.(check int) "client table drained" 0 (E.connection_count a);
  Alcotest.(check int) "server table drained" 0 (E.connection_count b)

let test_many_connections () =
  let sim, a, b = make_pair () in
  let established = ref 0 and echoed = ref 0 in
  E.listen b ~port:80 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun c data -> ignore (E.send c data));
      });
  for _ = 1 to 200 do
    let cb =
      {
        E.null_callbacks with
        E.on_connected =
          (fun c ->
            incr established;
            ignore (E.send c (Bytes.make 64 'x')));
        E.on_receive = (fun _ data -> echoed := !echoed + Bytes.length data);
      }
    in
    ignore (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:80 cb)
  done;
  Sim.run ~until:(Tas_engine.Time_ns.sec 5) sim;
  Alcotest.(check int) "all connections established" 200 !established;
  Alcotest.(check int) "all echoes returned" (200 * 64) !echoed

let test_rpc_round_trips () =
  (* Closed-loop RPCs on one connection: checks latency plausibility. *)
  let sim, a, b = make_pair () in
  let completed = ref 0 in
  E.listen b ~port:7 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun c data -> ignore (E.send c data));
      });
  let cb_receive count c data =
    ignore data;
    incr completed;
    if !completed < count then ignore (E.send c (Bytes.make 64 'r'))
  in
  let cb =
    {
      E.null_callbacks with
      E.on_connected = (fun c -> ignore (E.send c (Bytes.make 64 'r')));
      E.on_receive = (fun c d -> cb_receive 100 c d);
    }
  in
  ignore (E.connect a ~dst_ip:(Tas_proto.Addr.host_ip 1) ~dst_port:7 cb);
  Sim.run ~until:(Tas_engine.Time_ns.sec 1) sim;
  Alcotest.(check int) "100 RPCs completed" 100 !completed

(* --- Reassembly and packet ownership under faults ------------------------- *)

(* Reordering, duplication and 2% loss, installed in both directions. *)
let faulty =
  {
    (Fault.uniform_loss 0.02) with
    Fault.dup_rate = 0.02;
    reorder =
      Some
        {
          Fault.reorder_rate = 0.05;
          reorder_window = 4;
          max_hold_ns = Time_ns.us 50;
        };
  }

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 13) land 0xff))

(* What a [sink] received: the stream, its longest delivered chunk, and
   the connections it accepted. *)
type received = {
  stream : Buffer.t;
  mutable longest : int;
  mutable conns : E.conn list;
}

(* An engine on [nic] that accepts on port 9 and collects the stream. *)
let sink sim nic config =
  let e = E.create sim nic config in
  E.attach e;
  let r = { stream = Buffer.create 4096; longest = 0; conns = [] } in
  E.listen e ~port:9 (fun c ->
      r.conns <- c :: r.conns;
      {
        E.null_callbacks with
        E.on_receive =
          (fun _ d ->
            Buffer.add_bytes r.stream d;
            r.longest <- max r.longest (Bytes.length d));
      });
  (e, r)

(* Delivery is exact; every packet is back in its NIC's pool; the
   receiver stored out-of-order data (in-order data arrives one segment of
   at most [segment] bytes at a time, so a longer chunk is a run the ring
   held); and no receive ring holds a store once the stream is drained. *)
let check_drained ~payload ~received ~nics ~segment =
  Alcotest.(check int) "all bytes delivered" (Bytes.length payload)
    (Buffer.length received.stream);
  Alcotest.(check bool) "stream intact" true
    (Bytes.to_string payload = Buffer.contents received.stream);
  List.iter
    (fun nic ->
      Alcotest.(check int) "no packet outstanding" 0
        (Packet.Pool.outstanding (Nic.packet_pool nic)))
    nics;
  Alcotest.(check bool) "out-of-order data was stored" true
    (received.longest > segment);
  Alcotest.(check bool) "accepted a connection" true (received.conns <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "no receive store held" false (E.rx_backed c))
    received.conns

let faulty_pair () =
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ~fault_ab:faulty ~fault_ba:faulty
      ~rng:(Rng.create 11) ()
  in
  (sim, net.Topology.a.Topology.nic, net.Topology.b.Topology.nic)

let test_faulty_engine_to_engine () =
  let n = 300_000 in
  let payload = pattern n in
  let sim, nic_a, nic_b = faulty_pair () in
  let a = E.create sim nic_a E.default_config in
  E.attach a;
  let _, received = sink sim nic_b E.default_config in
  let sent = ref 0 in
  let rec push c =
    if !sent < n then begin
      let k = E.send c (Bytes.sub payload !sent (min 8192 (n - !sent))) in
      sent := !sent + k;
      if k > 0 then push c
    end
  in
  ignore
    (E.connect a ~dst_ip:(Nic.ip nic_b) ~dst_port:9
       {
         E.null_callbacks with
         E.on_connected = push;
         E.on_sendable = (fun c _ -> push c);
       });
  Sim.run ~until:(Time_ns.sec 10) sim;
  Alcotest.(check bool) "segments come from the NIC's pool" true
    (Packet.Pool.created (Nic.packet_pool nic_a) > 0);
  check_drained ~payload ~received ~nics:[ nic_a; nic_b ] ~segment:1460

let test_faulty_tas_to_engine () =
  let n = 300_000 in
  let payload = pattern n in
  let sim, nic_a, nic_b = faulty_pair () in
  let tas = Tas.create sim ~nic:nic_a ~config:Config.default () in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  let _, received = sink sim nic_b E.default_config in
  let sent = ref 0 in
  let rec push sock =
    if !sent < n then begin
      let k = Libtas.send sock (Bytes.sub payload !sent (min 8192 (n - !sent))) in
      sent := !sent + k;
      if k > 0 then push sock
    end
  in
  ignore
    (Libtas.connect lt ~ctx:0 ~dst_ip:(Nic.ip nic_b) ~dst_port:9
       {
         Libtas.null_handlers with
         Libtas.on_connected = push;
         Libtas.on_sendable = push;
       });
  Sim.run ~until:(Time_ns.sec 10) sim;
  check_drained ~payload ~received ~nics:[ nic_a; nic_b ] ~segment:1460

(* The disjoint ranges an unbounded receiver would hold, observed on the
   segments that reach [b]: a sorted list of [(start, stop)] offsets past
   the in-order edge. Returns the observer and the peak count. *)
let range_model deliver =
  let base = ref None and edge = ref 0 and ranges = ref [] and peak = ref 0 in
  let rec insert s e = function
    | [] -> [ (s, e) ]
    | (rs, re) :: rest when re < s -> (rs, re) :: insert s e rest
    | (rs, _) :: _ as l when e < rs -> (s, e) :: l
    | (rs, re) :: rest -> insert (min s rs) (max e re) rest
  in
  let rec advance = function
    | (s, e) :: rest when s <= !edge ->
      edge := max !edge e;
      advance rest
    | l -> l
  in
  let observe pkt =
    let tcp = pkt.Packet.tcp in
    (match !base with
    | None when tcp.Tas_proto.Tcp_header.flags.Tas_proto.Tcp_header.syn ->
      base := Some (Seq32.add tcp.Tas_proto.Tcp_header.seq 1)
    | Some b when Packet.payload_len pkt > 0 ->
      let s = Seq32.diff tcp.Tas_proto.Tcp_header.seq b in
      let e = s + Packet.payload_len pkt in
      if e > !edge then begin
        ranges := advance (insert (max s !edge) e !ranges);
        peak := max !peak (List.length !ranges)
      end
    | _ -> ());
    deliver pkt
  in
  (observe, peak)

let test_small_writes_beyond_range_bound () =
  (* 100 B segments into an 8 KB window: 81 segments fit and the store
     holds at most 8192 / 1460 + 1 = 6 ranges. 10% loss leaves more holes
     than that, and with half the segments held back, some land closer
     than the furthest range of a full store and evict it. *)
  let config = { E.default_config with E.rx_buf = 8192 } in
  let n = 100_000 and chunk = 100 in
  let payload = pattern n in
  let sim = Sim.create () in
  let net = Topology.point_to_point sim () in
  let nic_a = net.Topology.a.Topology.nic and nic_b = net.Topology.b.Topology.nic in
  let rng = Rng.create 5 in
  let lossy port deliver =
    let spec =
      {
        faulty with
        Fault.uniform_loss = 0.10;
        reorder =
          Some
            {
              Fault.reorder_rate = 0.5;
              reorder_window = 16;
              max_hold_ns = Time_ns.us 50;
            };
      }
    in
    let stage = Fault.create sim (Rng.split rng) spec in
    Port.set_deliver port (Fault.wrap stage deliver)
  in
  let observe, peak = range_model (Nic.input nic_b) in
  lossy net.Topology.a.Topology.uplink observe;
  lossy net.Topology.b.Topology.uplink (Nic.input nic_a);
  let a = E.create sim nic_a config in
  E.attach a;
  let _, received = sink sim nic_b config in
  (* One 100 B write per segment: write only while the window has room,
     so that each write leaves at once as its own segment. *)
  let sent = ref 0 in
  let rec push c =
    let in_flight = !sent - E.bytes_acked c in
    if !sent < n && in_flight + chunk <= min (E.cwnd c) config.E.rx_buf then
      if E.send c (Bytes.sub payload !sent chunk) = chunk then begin
        sent := !sent + chunk;
        push c
      end
  in
  ignore
    (E.connect a ~dst_ip:(Nic.ip nic_b) ~dst_port:9
       {
         E.null_callbacks with
         E.on_connected = push;
         E.on_sendable = (fun c _ -> push c);
       });
  Sim.run ~until:(Time_ns.sec 20) sim;
  Alcotest.(check bool) "more holes than the store's bound" true
    (!peak > (config.E.rx_buf / 1460) + 1);
  check_drained ~payload ~received ~nics:[ nic_a; nic_b ] ~segment:chunk

let suite =
  [
    Alcotest.test_case "handshake and echo" `Quick test_handshake_and_echo;
    Alcotest.test_case "bulk transfer 500KB" `Quick test_bulk_transfer;
    Alcotest.test_case "2% loss, full OOO recovery" `Quick test_loss_full_ooo;
    Alcotest.test_case "10% loss survives" `Quick test_heavy_loss;
    Alcotest.test_case "FIN close handshake" `Quick test_close_handshake;
    Alcotest.test_case "closed-loop RPC round trips" `Quick test_rpc_round_trips;
    Alcotest.test_case "200 concurrent connections" `Quick test_many_connections;
    Alcotest.test_case "faulty links engine to engine" `Quick
      test_faulty_engine_to_engine;
    Alcotest.test_case "faulty links TAS to engine" `Quick
      test_faulty_tas_to_engine;
    Alcotest.test_case "small writes beyond the range bound" `Quick
      test_small_writes_beyond_range_bound;
  ]
