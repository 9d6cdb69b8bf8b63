(* Behavioral tests of TAS internals: out-of-order receive handling, fast
   recovery, slow-path timeouts, dynamic core scaling, context-queue
   coalescing, and the Table 6 core-split heuristic. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Slow_path = Tas_core.Slow_path
module E = Tas_baseline.Tcp_engine
module Scenario = Tas_experiments.Scenario

(* TAS host + ideal engine peer over a lossy/able link. *)
let make ?(config = Config.default) () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| core |] ~api:Libtas.Sockets in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  (sim, net, tas, lt, peer)

let test_ooo_interval_on_receive () =
  (* Drop exactly one data packet towards TAS; later segments must be
     buffered in the OOO interval, and the retransmission must fill the gap
     so the stream arrives intact. *)
  let sim, net, tas, lt, peer = make () in
  let received = Buffer.create 1024 in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun _ d -> Buffer.add_bytes received d);
      });
  (* Drop the 5th data packet from peer -> TAS, once. *)
  let count = ref 0 in
  let dropped = ref false in
  Port.set_deliver net.Topology.b.Topology.uplink (fun pkt ->
      if
        Bytes.length pkt.Tas_proto.Packet.payload > 0
        && (incr count;
            !count = 5)
        && not !dropped
      then dropped := true
      else Tas_netsim.Nic.input net.Topology.a.Topology.nic pkt);
  let n = 50_000 in
  let payload = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
  let sent = ref 0 in
  let push c =
    while
      !sent < n
      &&
      let k = E.send c (Bytes.sub payload !sent (min 4096 (n - !sent))) in
      sent := !sent + k;
      k > 0
    do
      ()
    done
  in
  ignore
    (E.connect peer ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
       ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> push c);
         E.on_sendable = (fun c _ -> push c);
       });
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check bool) "a data packet was dropped" true !dropped;
  let stats = Fast_path.stats (Tas.fast_path tas) in
  Alcotest.(check bool) "segments were stored out of order" true
    (stats.Fast_path.ooo_stored > 0);
  Alcotest.(check int) "stream complete" n (Buffer.length received);
  Alcotest.(check string) "stream intact" (Bytes.to_string payload)
    (Buffer.contents received)

let test_fast_recovery_on_dupacks () =
  (* Drop one packet TAS -> peer: the peer's duplicate ACKs must trigger
     exactly one fast-path recovery (counted in stats). *)
  let sim, net, tas, lt, peer = make () in
  let received = Buffer.create 1024 in
  E.listen peer ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ d -> Buffer.add_bytes received d);
      });
  let count = ref 0 and dropped = ref false in
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      if
        Bytes.length pkt.Tas_proto.Packet.payload > 0
        && (incr count;
            !count = 7)
        && not !dropped
      then dropped := true
      else Tas_netsim.Nic.input net.Topology.b.Topology.nic pkt);
  let n = 80_000 in
  let payload = Bytes.init n (fun i -> Char.chr ((i * 3) land 0xff)) in
  let sent = ref 0 in
  let push sock =
    while
      !sent < n
      &&
      let k = Libtas.send sock (Bytes.sub payload !sent (min 4096 (n - !sent))) in
      sent := !sent + k;
      k > 0
    do
      ()
    done
  in
  ignore
    (Libtas.connect lt ~ctx:0
       ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:9
       {
         Libtas.null_handlers with
         Libtas.on_connected = (fun s -> push s);
         Libtas.on_sendable = (fun s -> push s);
       });
  Sim.run ~until:(Time_ns.sec 2) sim;
  let stats = Fast_path.stats (Tas.fast_path tas) in
  Alcotest.(check bool) "fast recovery triggered" true
    (stats.Fast_path.fast_retransmits >= 1);
  Alcotest.(check int) "stream complete" n (Buffer.length received);
  Alcotest.(check string) "stream intact" (Bytes.to_string payload)
    (Buffer.contents received)

let test_slow_path_timeout_retransmit () =
  (* Blackhole data from TAS entirely for a while: the slow path must
     detect the stall and trigger retransmission; after the hole heals the
     stream completes. *)
  let sim, net, tas, lt, peer = make () in
  let received = Buffer.create 1024 in
  E.listen peer ~port:9 (fun _ ->
      {
        E.null_callbacks with
        E.on_receive = (fun _ d -> Buffer.add_bytes received d);
      });
  let blackhole = ref false in
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      if !blackhole && Bytes.length pkt.Tas_proto.Packet.payload > 0 then ()
      else Tas_netsim.Nic.input net.Topology.b.Topology.nic pkt);
  let n = 20_000 in
  let payload = Bytes.init n (fun i -> Char.chr ((i * 5) land 0xff)) in
  let sent = ref 0 in
  let push sock =
    while
      !sent < n
      &&
      let k = Libtas.send sock (Bytes.sub payload !sent (min 4096 (n - !sent))) in
      sent := !sent + k;
      k > 0
    do
      ()
    done
  in
  ignore
    (Libtas.connect lt ~ctx:0
       ~dst_ip:(Tas_netsim.Nic.ip net.Topology.b.Topology.nic) ~dst_port:9
       {
         Libtas.null_handlers with
         Libtas.on_connected =
           (fun s ->
             blackhole := true;
             push s);
         Libtas.on_sendable = (fun s -> push s);
       });
  (* Heal the link after 30 ms. *)
  ignore (Sim.schedule sim (Time_ns.ms 30) (fun () -> blackhole := false));
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check bool) "slow path fired timeout retransmissions" true
    (Slow_path.timeout_retransmits (Tas.slow_path tas) >= 1);
  Alcotest.(check int) "stream complete after healing" n
    (Buffer.length received)

let test_simple_recovery_mode_drops_ooo () =
  (* With rx_ooo_enabled = false, out-of-order segments are not buffered. *)
  let config = { Config.default with Config.rx_ooo_enabled = false } in
  let sim, net, tas, lt, peer = make ~config () in
  let received = Buffer.create 1024 in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun _ d -> Buffer.add_bytes received d);
      });
  let count = ref 0 and dropped = ref false in
  Port.set_deliver net.Topology.b.Topology.uplink (fun pkt ->
      if
        Bytes.length pkt.Tas_proto.Packet.payload > 0
        && (incr count;
            !count = 5)
        && not !dropped
      then dropped := true
      else Tas_netsim.Nic.input net.Topology.a.Topology.nic pkt);
  let n = 50_000 in
  let payload = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
  let sent = ref 0 in
  let push c =
    while
      !sent < n
      &&
      let k = E.send c (Bytes.sub payload !sent (min 4096 (n - !sent))) in
      sent := !sent + k;
      k > 0
    do
      ()
    done
  in
  ignore
    (E.connect peer ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
       ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> push c);
         E.on_sendable = (fun c _ -> push c);
       });
  Sim.run ~until:(Time_ns.sec 3) sim;
  let stats = Fast_path.stats (Tas.fast_path tas) in
  Alcotest.(check int) "nothing stored out of order" 0
    stats.Fast_path.ooo_stored;
  Alcotest.(check bool) "payload drops instead" true
    (stats.Fast_path.payload_drops > 0);
  Alcotest.(check int) "stream still completes (go-back-N)" n
    (Buffer.length received);
  Alcotest.(check string) "stream intact" (Bytes.to_string payload)
    (Buffer.contents received)

let test_dynamic_scaling_up_down () =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 4;
      dynamic_scaling = true;
      scale_check_interval_ns = Time_ns.ms 5;
      (* Inflate costs so modest load saturates a core. *)
      fp_rx_cycles = 20_000;
      fp_tx_cycles = 10_000;
      fp_ack_rx_cycles = 5_000;
    }
  in
  let sim, net, tas, lt, peer = make ~config () in
  Alcotest.(check int) "starts with 1 core" 1
    (Fast_path.active_cores (Tas.fast_path tas));
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun s d -> ignore (Libtas.send s d));
      });
  (* 32 closed-loop connections at full tilt. *)
  let stop = ref false in
  for _ = 1 to 32 do
    let cb =
      {
        E.null_callbacks with
        E.on_connected = (fun c -> ignore (E.send c (Bytes.make 64 'x')));
        E.on_receive =
          (fun c _ -> if not !stop then ignore (E.send c (Bytes.make 64 'x')));
      }
    in
    ignore
      (E.connect peer ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
         ~dst_port:7 cb)
  done;
  Sim.run ~until:(Time_ns.ms 100) sim;
  let peak = Fast_path.active_cores (Tas.fast_path tas) in
  Alcotest.(check bool)
    (Printf.sprintf "scaled up under load (%d cores)" peak)
    true (peak >= 2);
  (* Quiesce: cores must be released again. *)
  stop := true;
  Sim.run ~until:(Sim.now sim + Time_ns.ms 200) sim;
  Alcotest.(check int) "scaled back down when idle" 1
    (Fast_path.active_cores (Tas.fast_path tas))

let test_core_split_matches_table6 () =
  (* Paper Table 6: sockets splits 2->1/1, 4->2/2, 8->5/3, 12->7/5, 16->9/7;
     low-level splits evenly. *)
  List.iter
    (fun (total, expected) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "SO split at %d cores" total)
        expected
        (Scenario.core_split Scenario.Tas_so ~total ~app_cycles:680))
    [ (2, (1, 1)); (4, (2, 2)); (8, (5, 3)); (12, (7, 5)); (16, (9, 7)) ];
  List.iter
    (fun (total, expected) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "LL split at %d cores" total)
        expected
        (Scenario.core_split Scenario.Tas_ll ~total ~app_cycles:680))
    [ (2, (1, 1)); (4, (2, 2)); (8, (4, 4)); (12, (6, 6)); (16, (8, 8)) ]

let test_context_event_coalescing () =
  (* Multiple payload deposits while the app is busy produce a single
     Readable event per flow. *)
  let ctx = Tas_core.Context.create ~id:0 in
  let sim = Sim.create () in
  let bucket =
    Tas_core.Rate_bucket.create sim (Tas_core.Rate_bucket.Window 65536)
      ~burst_bytes:0
  in
  let flow =
    Tas_core.Flow_state.create
      ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
      ~pool:(Tas_buffers.Ring_buffer.Pool.create ()) ~opaque:1 ~context:0 ~bucket ~rx_buf_size:1024
      ~tx_buf_size:1024 ~local_port:1 ~peer_ip:2 ~peer_port:3 ~peer_mac:4
      ~tx_iss:0 ~rx_next:0 ~window:1000 ~peer_wscale:0 ()
  in
  let wakes = ref 0 in
  Tas_core.Context.set_waker ctx (fun () -> incr wakes);
  Tas_core.Context.post_readable ctx flow;
  Tas_core.Context.post_readable ctx flow;
  Tas_core.Context.post_readable ctx flow;
  Alcotest.(check int) "coalesced to one event" 1
    (Tas_core.Context.pending ctx);
  Alcotest.(check int) "single wake" 1 !wakes;
  (match Tas_core.Context.head_kind ctx with
  | Tas_core.Context.Readable ->
    Alcotest.(check bool) "same flow" true (Tas_core.Context.pop ctx == flow)
  | Tas_core.Context.Writable -> Alcotest.fail "expected Readable");
  (* After consumption, a new deposit re-notifies. *)
  Tas_core.Context.post_readable ctx flow;
  Alcotest.(check int) "re-armed after pop" 1 (Tas_core.Context.pending ctx)

(* More flows than the queue's initial 4,096 slots hold events for: the
   queue doubles in place (twice here, with its head mid-array), pops in
   post order and keeps coalescing. A warm post/pop cycle that fills the
   initial slots exactly allocates nothing. *)
let test_context_grows_in_place () =
  let module Ctx = Tas_core.Context in
  let n = 5000 in
  let sim = Sim.create () in
  let bucket =
    Tas_core.Rate_bucket.create sim (Tas_core.Rate_bucket.Window 65536)
      ~burst_bytes:0
  in
  let arena = Tas_core.Flow_arena.create ~capacity:n ()
  and pool = Tas_buffers.Ring_buffer.Pool.create () in
  let flows =
    Array.init n (fun i ->
        Tas_core.Flow_state.create ~arena ~pool ~opaque:i ~context:0 ~bucket
          ~rx_buf_size:64 ~tx_buf_size:64 ~local_port:1 ~peer_ip:2
          ~peer_port:3 ~peer_mac:4 ~tx_iss:0 ~rx_next:0 ~window:1000
          ~peer_wscale:0 ())
  in
  let ctx = Ctx.create ~id:0 in
  for i = 0 to 99 do
    Ctx.post_readable ctx flows.(i)
  done;
  for _ = 1 to 50 do
    ignore (Ctx.pop ctx)
  done;
  for i = 100 to n - 1 do
    Ctx.post_readable ctx flows.(i)
  done;
  Array.iter (Ctx.post_writable ctx) flows;
  for i = 50 to n - 1 do
    Ctx.post_readable ctx flows.(i)
  done;
  Array.iter (Ctx.post_writable ctx) flows;
  Alcotest.(check int) "coalesced past the initial size"
    ((2 * n) - 50) (Ctx.pending ctx);
  let popped kind lo hi =
    for i = lo to hi do
      if Ctx.head_kind ctx <> kind || Ctx.pop ctx != flows.(i) then
        Alcotest.failf "event %d out of post order" i
    done
  in
  popped Ctx.Readable 50 (n - 1);
  (* Flows 0..49 were popped before the growth: a new post queues again. *)
  Ctx.post_readable ctx flows.(0);
  popped Ctx.Writable 0 (n - 1);
  popped Ctx.Readable 0 0;
  Alcotest.(check bool) "drained" true (Ctx.is_empty ctx);
  let warm = Ctx.create ~id:1 in
  let cycle () =
    for i = 0 to 2047 do
      Ctx.post_readable warm flows.(i);
      Ctx.post_writable warm flows.(i)
    done;
    while not (Ctx.is_empty warm) do
      ignore (Ctx.pop warm)
    done
  in
  cycle ();
  let w0 = Gc.minor_words () in
  cycle ();
  Alcotest.(check (float 0.0)) "warm cycle allocates nothing" 0.0
    (Gc.minor_words () -. w0)

let suite =
  [
    Alcotest.test_case "receiver OOO interval heals a drop" `Quick
      test_ooo_interval_on_receive;
    Alcotest.test_case "dup-ACK fast recovery" `Quick
      test_fast_recovery_on_dupacks;
    Alcotest.test_case "slow-path timeout retransmit" `Quick
      test_slow_path_timeout_retransmit;
    Alcotest.test_case "simple recovery drops OOO" `Quick
      test_simple_recovery_mode_drops_ooo;
    Alcotest.test_case "dynamic core scaling up and down" `Quick
      test_dynamic_scaling_up_down;
    Alcotest.test_case "core split matches Table 6" `Quick
      test_core_split_matches_table6;
    Alcotest.test_case "context event coalescing" `Quick
      test_context_event_coalescing;
    Alcotest.test_case "context queue grows in place" `Quick
      test_context_grows_in_place;
  ]
