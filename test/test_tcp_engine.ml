(* Integration tests of the baseline TCP engine over the network simulator. *)

module Sim = Tas_engine.Sim
module Rng = Tas_engine.Rng
module Topology = Tas_netsim.Topology
module E = Tas_baseline.Tcp_engine

let make_pair ?spec ?loss_rate ?rng ?(config = E.default_config) () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ?spec ?loss_rate ?rng () in
  let a = E.create sim net.Topology.a.Topology.nic config in
  let b = E.create sim net.Topology.b.Topology.nic config in
  E.attach a;
  E.attach b;
  (sim, a, b)

(* Echo server on [b]; send [payload] from [a]; expect it echoed back. *)
let run_echo ?spec ?loss_rate ?rng ?config ~payload () =
  let sim, a, b = make_pair ?spec ?loss_rate ?rng ?config () in
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
  let sim, a, b = make_pair ~loss_rate ~rng () in
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

let suite =
  [
    Alcotest.test_case "handshake and echo" `Quick test_handshake_and_echo;
    Alcotest.test_case "bulk transfer 500KB" `Quick test_bulk_transfer;
    Alcotest.test_case "2% loss, full OOO recovery" `Quick test_loss_full_ooo;
    Alcotest.test_case "10% loss survives" `Quick test_heavy_loss;
    Alcotest.test_case "FIN close handshake" `Quick test_close_handshake;
    Alcotest.test_case "closed-loop RPC round trips" `Quick test_rpc_round_trips;
    Alcotest.test_case "200 concurrent connections" `Quick test_many_connections;
  ]
