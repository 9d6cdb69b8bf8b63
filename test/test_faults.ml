(* Fault-injection tests, consolidated: stage unit semantics
   (Gilbert–Elliott burst statistics, dup/reorder/blackout), corruption-drop
   accounting, RST generation/handling, SYN retry exhaustion, FIN retry cap,
   plus end-to-end wire behaviour under injected faults (reordering and
   duplication into TAS, tap-based handshake observation, ACK accounting). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Port = Tas_netsim.Port
module Nic = Tas_netsim.Nic
module Tap = Tas_netsim.Tap
module Fault = Tas_netsim.Fault
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Slow_path = Tas_core.Slow_path
module Fast_path = Tas_core.Fast_path
module E = Tas_baseline.Tcp_engine

let mk_packet ?(payload_len = 100) ?(flags = Tcp.data_flags) ?(src = 9)
    ?(dst = 8) () =
  let tcp =
    (Tcp.make ~src_port:1234 ~dst_port:80 ~seq:1000 ~ack:2000 ~flags
       ~window:65535 ())
  in
  Packet.make ~src_mac:(Addr.host_mac src) ~dst_mac:(Addr.host_mac dst)
    ~src_ip:(Addr.host_ip src) ~dst_ip:(Addr.host_ip dst) ~tcp
    ~payload:(Bytes.create payload_len) ()

(* --- Gilbert–Elliott loss -------------------------------------------------- *)

(* Offer [n] packets to a fresh stage and record, in order, whether each was
   delivered (no reorder/dup in the specs used here, so delivery is
   synchronous). *)
let ge_run ~seed ~n spec =
  let sim = Sim.create () in
  let stage = Fault.create sim (Rng.create seed) spec in
  let pkt = mk_packet () in
  let pattern =
    Array.init n (fun _ ->
        let delivered = ref false in
        (* The same packet is offered [n] times: one reference per offer. *)
        Packet.retain pkt;
        Fault.wrap stage (fun _ -> delivered := true) pkt;
        !delivered)
  in
  (stage, pattern)

let mean_drop_burst pattern =
  let bursts = ref 0 and dropped = ref 0 and in_burst = ref false in
  Array.iter
    (fun delivered ->
      if delivered then in_burst := false
      else begin
        incr dropped;
        if not !in_burst then incr bursts;
        in_burst := true
      end)
    pattern;
  if !bursts = 0 then 0.0 else float_of_int !dropped /. float_of_int !bursts

let test_ge_deterministic_and_bursty () =
  let spec = Fault.bursty_of_rate ~rate:0.05 ~mean_burst_pkts:4.0 in
  let n = 20_000 in
  let s1, p1 = ge_run ~seed:11 ~n spec in
  let s2, p2 = ge_run ~seed:11 ~n spec in
  Alcotest.(check bool) "same seed, same drop pattern" true (p1 = p2);
  let c1 = Fault.counters s1 and c2 = Fault.counters s2 in
  Alcotest.(check int) "same burst_drops" c1.Fault.burst_drops
    c2.Fault.burst_drops;
  Alcotest.(check int) "offered" n c1.Fault.offered;
  Alcotest.(check int) "conservation" c1.Fault.offered
    (c1.Fault.forwarded + c1.Fault.burst_drops);
  (* Stationary rate ~5%, and drops arrive in multi-packet bursts. *)
  let rate = float_of_int c1.Fault.burst_drops /. float_of_int n in
  Alcotest.(check bool) "stationary loss rate near 5%" true
    (rate > 0.03 && rate < 0.07);
  let burst = mean_drop_burst p1 in
  Alcotest.(check bool)
    (Printf.sprintf "mean drop-burst length %.2f > 2 (uniform would be ~1)"
       burst)
    true (burst > 2.0);
  (* A different seed yields a different schedule. *)
  let _, p3 = ge_run ~seed:12 ~n spec in
  Alcotest.(check bool) "different seed, different pattern" false (p1 = p3)

(* --- Stage unit semantics: dup, reorder hold, blackout --------------------- *)

let test_dup_counting () =
  let sim = Sim.create () in
  let stage =
    Fault.create sim (Rng.create 3)
      { Fault.passthrough with Fault.dup_rate = 1.0 }
  in
  let delivered = ref 0 in
  let pkt = mk_packet () in
  for _ = 1 to 10 do
    Fault.wrap stage (fun _ -> incr delivered) pkt
  done;
  let c = Fault.counters stage in
  Alcotest.(check int) "every packet delivered twice" 20 !delivered;
  Alcotest.(check int) "dups counted" 10 c.Fault.dups;
  Alcotest.(check int) "forwarded counts both copies" 20 c.Fault.forwarded

let test_reorder_hold_and_flush () =
  let sim = Sim.create () in
  let stage =
    Fault.create sim (Rng.create 3)
      {
        Fault.passthrough with
        Fault.reorder =
          Some
            { Fault.reorder_rate = 1.0; reorder_window = 4;
              max_hold_ns = 1_000_000 };
      }
  in
  let delivered = ref 0 in
  let pkt = mk_packet () in
  for _ = 1 to 3 do
    Fault.wrap stage (fun _ -> incr delivered) pkt
  done;
  Alcotest.(check int) "all held, none delivered" 0 !delivered;
  Alcotest.(check int) "held" 3 (Fault.held stage);
  Fault.flush stage;
  Alcotest.(check int) "flush delivers everything" 3 !delivered;
  Alcotest.(check int) "nothing held after flush" 0 (Fault.held stage);
  let c = Fault.counters stage in
  Alcotest.(check int) "holds counted" 3 c.Fault.reorder_holds;
  Alcotest.(check int) "forwarded after flush" 3 c.Fault.forwarded

let test_reorder_timer_release () =
  let sim = Sim.create () in
  let stage =
    Fault.create sim (Rng.create 3)
      {
        Fault.passthrough with
        Fault.reorder =
          Some
            { Fault.reorder_rate = 1.0; reorder_window = 100;
              max_hold_ns = 1_000 };
      }
  in
  let delivered_at = ref (-1) in
  Fault.wrap stage (fun _ -> delivered_at := Sim.now sim) (mk_packet ());
  Alcotest.(check int) "held initially" 1 (Fault.held stage);
  Sim.run sim;
  Alcotest.(check int) "released by timer at max_hold_ns" 1_000 !delivered_at;
  Alcotest.(check int) "no longer held" 0 (Fault.held stage)

let test_blackout_window () =
  let sim = Sim.create () in
  let stage =
    Fault.create sim (Rng.create 3)
      { Fault.passthrough with Fault.blackouts = [ (100, 200) ] }
  in
  let delivered = ref 0 in
  let offer () = Fault.wrap stage (fun _ -> incr delivered) (mk_packet ()) in
  offer ();
  ignore (Sim.schedule sim 150 offer);
  ignore (Sim.schedule sim 250 offer);
  Sim.run sim;
  let c = Fault.counters stage in
  Alcotest.(check int) "delivered outside the window" 2 !delivered;
  Alcotest.(check int) "dropped inside the window" 1 c.Fault.blackout_drops

(* --- Corruption-drop accounting through a TAS receiver --------------------- *)

(* Engine client on host a sends through an a->b fault stage into a TAS
   echo server on host b: every injected corruption must re-appear as
   exactly one receiver-side validation drop (NIC checksum for payload
   bit-flips, fast-path length check for header manglings). *)
let corruption_run spec =
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim ~fault_ab:spec ~rng:(Rng.create 5)
      ~queues_per_nic:4 ()
  in
  let tas = Tas.create sim ~nic:net.Topology.b.Topology.nic
      ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:300 () |] ~api:Libtas.Sockets
  in
  Libtas.listen lt ~port:80 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock d -> ignore (Libtas.send sock d));
      });
  let peer = E.create sim net.Topology.a.Topology.nic E.default_config in
  E.attach peer;
  ignore
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:80
       {
         E.null_callbacks with
         E.on_connected = (fun c -> ignore (E.send c (Bytes.create 4000)));
       });
  Sim.run ~until:(Time_ns.ms 200) sim;
  let c = Fault.counters (Option.get net.Topology.fault_ab) in
  let malformed =
    (Fast_path.stats (Tas.fast_path tas)).Fast_path.malformed_drops
  in
  (c, Nic.rx_csum_drops net.Topology.b.Topology.nic, malformed)

let test_payload_corruption_accounting () =
  let c, csum_drops, malformed =
    corruption_run { Fault.passthrough with Fault.corrupt_rate = 0.3 }
  in
  Alcotest.(check bool) "some corruptions injected" true
    (c.Fault.payload_corrupts > 0);
  Alcotest.(check int) "each caught by NIC checksum validation"
    c.Fault.payload_corrupts csum_drops;
  Alcotest.(check int) "no header corruptions" 0 c.Fault.header_corrupts;
  Alcotest.(check int) "no length-validation drops" 0 malformed

let test_header_corruption_accounting () =
  let c, csum_drops, malformed =
    corruption_run
      {
        Fault.passthrough with
        Fault.corrupt_rate = 0.3;
        corrupt_header_fraction = 1.0;
      }
  in
  Alcotest.(check bool) "some corruptions injected" true
    (c.Fault.header_corrupts > 0);
  Alcotest.(check int) "each caught by fast-path length validation"
    c.Fault.header_corrupts malformed;
  Alcotest.(check int) "no payload corruptions" 0 c.Fault.payload_corrupts;
  Alcotest.(check int) "no checksum drops" 0 csum_drops

(* --- RST generation and connection-error surfacing ------------------------- *)

let tas_pair ?fault_ab ?rng sim =
  let net = Topology.point_to_point sim ?fault_ab ?rng ~queues_per_nic:4 () in
  let host endpoint base =
    let t =
      Tas.create sim ~nic:endpoint.Topology.nic ~config:Config.default ()
    in
    let lt =
      Tas.app t ~app_cores:[| Core.create sim ~id:base () |]
        ~api:Libtas.Sockets
    in
    (t, lt)
  in
  let a = host net.Topology.a 400 in
  let b = host net.Topology.b 500 in
  (net, a, b)

let test_rst_on_unknown_tuple () =
  (* A well-formed data segment for a tuple the host has never seen must be
     answered with RST (and must not crash anything). *)
  let sim = Sim.create () in
  let net, (tas_a, _), _ = tas_pair sim in
  let pkt =
    mk_packet ~payload_len:50
      ~src:net.Topology.b.Topology.host_id
      ~dst:net.Topology.a.Topology.host_id ()
  in
  Nic.input net.Topology.a.Topology.nic pkt;
  Sim.run ~until:(Time_ns.ms 5) sim;
  Alcotest.(check int) "one RST sent" 1
    (Slow_path.rsts_sent (Tas.slow_path tas_a));
  Alcotest.(check int) "no flow installed" 0
    (Slow_path.flow_count (Tas.slow_path tas_a))

let test_connect_refused_by_rst () =
  (* TAS-to-TAS connect to a port with no listener: the peer refuses with
     RST and the client surfaces [Refused] (not a retry-until-timeout). *)
  let sim = Sim.create () in
  let net, (_, lt_a), (tas_b, _) = tas_pair sim in
  let err = ref None in
  ignore
    (Libtas.connect lt_a ~ctx:0
       ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:4242
       {
         Libtas.null_handlers with
         Libtas.on_connect_failed = (fun _ e -> err := Some e);
       });
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check bool) "refused" true (!err = Some Slow_path.Refused);
  Alcotest.(check bool) "peer sent the RST" true
    (Slow_path.rsts_sent (Tas.slow_path tas_b) >= 1)

let test_syn_retry_exhaustion () =
  (* Every SYN (a->b) is dropped: the connect must fail with [Timeout]
     after the configured retries, not hang forever. *)
  let sim = Sim.create () in
  let net, (_, lt_a), _ =
    tas_pair ~fault_ab:(Fault.uniform_loss 1.0) ~rng:(Rng.create 6) sim
  in
  let err = ref None and failed_at = ref 0 in
  ignore
    (Libtas.connect lt_a ~ctx:0
       ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:80
       {
         Libtas.null_handlers with
         Libtas.on_connect_failed =
           (fun _ e ->
             err := Some e;
             failed_at := Sim.now sim);
       });
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check bool) "failed with Timeout" true
    (!err = Some Slow_path.Timeout);
  (* 5 retries x 20 ms handshake RTO. *)
  Alcotest.(check bool) "after the full retry budget" true
    (!failed_at >= Time_ns.ms 100 && !failed_at <= Time_ns.ms 300)

let test_fin_retry_cap () =
  (* The a->b link goes dark before the TAS side closes: its FINs are never
     acked, and after the slow path's 8 FIN retransmissions (its
     [fin_retries]) the flow must be forcibly torn down (counted) instead of
     re-arming forever. *)
  let sim = Sim.create () in
  let net =
    Topology.point_to_point sim
      ~fault_ab:
        { Fault.passthrough with
          Fault.blackouts = [ (Time_ns.ms 50, Time_ns.sec 100) ] }
      ~rng:(Rng.create 7) ~queues_per_nic:4 ()
  in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:600 () |] ~api:Libtas.Sockets
  in
  let sref = ref None in
  let closed = ref false in
  Libtas.listen lt ~port:80 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_connected = (fun sock -> sref := Some sock);
        Libtas.on_closed = (fun _ -> closed := true);
      });
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  ignore
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:80
       E.null_callbacks);
  (* Close the TAS side after the link has gone dark. *)
  ignore
    (Sim.schedule sim (Time_ns.ms 60) (fun () ->
         match !sref with
         | Some sock -> Libtas.close sock
         | None -> Alcotest.fail "connection never established"));
  Sim.run ~until:(Time_ns.sec 1) sim;
  Alcotest.(check int) "fin retries exhausted once" 1
    (Slow_path.fin_retry_exhausted (Tas.slow_path tas));
  Alcotest.(check int) "flow state reclaimed" 0
    (Slow_path.flow_count (Tas.slow_path tas));
  Alcotest.(check bool) "app saw the close" true !closed

(* --- Wire behaviour under injected faults ---------------------------------- *)

let bulk_through_tas _sim net tas lt peer ~n =
  ignore tas;
  let received = Buffer.create n in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun _ d -> Buffer.add_bytes received d);
      });
  let payload = Bytes.init n (fun i -> Char.chr ((i * 11) land 0xff)) in
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
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> push c);
         E.on_sendable = (fun c _ -> push c);
       });
  (received, payload)

let test_reordering_into_tas () =
  (* 10% of packets towards TAS are delayed by 60us: heavy reordering, no
     loss. The OOO interval plus duplicate-ACK-driven retransmission must
     still deliver the exact stream. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  let rng = Rng.create 31 in
  let stage =
    Fault.create sim rng
      { Fault.passthrough with
        Fault.reorder =
          Some
            { Fault.reorder_rate = 0.1; reorder_window = 4;
              max_hold_ns = 60_000 } }
  in
  Port.set_deliver net.Topology.b.Topology.uplink
    (Fault.wrap stage (fun pkt -> Nic.input net.Topology.a.Topology.nic pkt));
  let n = 200_000 in
  let received, payload = bulk_through_tas sim net tas lt peer ~n in
  Sim.run ~until:(Time_ns.sec 5) sim;
  Alcotest.(check int) "stream complete under reordering" n
    (Buffer.length received);
  Alcotest.(check string) "stream intact" (Bytes.to_string payload)
    (Buffer.contents received)

let test_duplication_into_tas () =
  (* Every 10th packet is delivered twice: duplicates must be absorbed. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  let count = ref 0 in
  Port.set_deliver net.Topology.b.Topology.uplink (fun pkt ->
      incr count;
      let dup = !count mod 10 = 0 in
      (* Each delivery hands on one reference. *)
      if dup then Packet.retain pkt;
      Nic.input net.Topology.a.Topology.nic pkt;
      if dup then Nic.input net.Topology.a.Topology.nic pkt);
  let n = 100_000 in
  let received, payload = bulk_through_tas sim net tas lt peer ~n in
  Sim.run ~until:(Time_ns.sec 5) sim;
  Alcotest.(check int) "no duplicate delivery to the app" n
    (Buffer.length received);
  Alcotest.(check string) "stream intact" (Bytes.to_string payload)
    (Buffer.contents received)

let test_tap_observes_handshake () =
  (* The tap must see exactly one SYN and one handshake ACK from the client,
     and TAS's SYN-ACK in the other direction. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      Libtas.null_handlers);
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  let to_tas = Tap.create () and from_tas = Tap.create () in
  Port.set_deliver net.Topology.b.Topology.uplink
    (Tap.wrap to_tas sim (fun p -> Nic.input net.Topology.a.Topology.nic p));
  Port.set_deliver net.Topology.a.Topology.uplink
    (Tap.wrap from_tas sim (fun p -> Nic.input net.Topology.b.Topology.nic p));
  ignore
    (E.connect peer ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       E.null_callbacks);
  Sim.run ~until:(Time_ns.ms 10) sim;
  let syns =
    Tap.matching to_tas (fun p ->
        p.Packet.tcp.Tcp.flags.Tcp.syn && not p.Packet.tcp.Tcp.flags.Tcp.ack)
  in
  let synacks =
    Tap.matching from_tas (fun p ->
        p.Packet.tcp.Tcp.flags.Tcp.syn && p.Packet.tcp.Tcp.flags.Tcp.ack)
  in
  Alcotest.(check int) "one SYN" 1 (List.length syns);
  Alcotest.(check int) "one SYN-ACK" 1 (List.length synacks);
  (* The SYN carries MSS, wscale and timestamp options. *)
  (match syns with
  | [ { Tap.pkt; _ } ] ->
    let tcp = pkt.Packet.tcp in
    Alcotest.(check bool) "SYN has mss" true (tcp.Tcp.mss <> None);
    Alcotest.(check bool) "SYN has wscale" true (tcp.Tcp.wscale <> None);
    Alcotest.(check bool) "SYN has timestamp" true tcp.Tcp.has_ts
  | _ -> Alcotest.fail "expected one SYN");
  (* pp_record renders without raising. *)
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Tap.dump fmt to_tas;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "dump produced text" true (Buffer.length buf > 0)

let test_tap_ring_limit () =
  let sim = Sim.create () in
  let tap = Tap.create ~limit:5 () in
  let deliver = Tap.wrap tap sim ignore in
  let tcp =
    (Tcp.make ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0 ~flags:Tcp.data_flags
       ~window:0 ())
  in
  for _ = 1 to 12 do
    deliver
      (Packet.make ~src_mac:1 ~dst_mac:2 ~src_ip:(Tas_proto.Addr.host_ip 1)
         ~dst_ip:(Tas_proto.Addr.host_ip 2) ~tcp ~payload:Bytes.empty ())
  done;
  Alcotest.(check int) "bounded at limit" 5 (Tap.count tap);
  Tap.clear tap;
  Alcotest.(check int) "cleared" 0 (Tap.count tap)

let test_tas_acks_every_data_packet () =
  (* Wire-level check: for N data packets in, TAS emits N ACKs. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  let peer = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach peer;
  let n = 64_000 in
  let received, _ = bulk_through_tas sim net tas lt peer ~n in
  Sim.run ~until:(Time_ns.sec 2) sim;
  Alcotest.(check int) "delivered" n (Buffer.length received);
  let stats = Fast_path.stats (Tas.fast_path tas) in
  Alcotest.(check int) "one ACK per data packet"
    stats.Fast_path.rx_data_packets stats.Fast_path.acks_sent

let suite =
  [
    Alcotest.test_case "GE loss: deterministic and bursty" `Quick
      test_ge_deterministic_and_bursty;
    Alcotest.test_case "duplication counting" `Quick test_dup_counting;
    Alcotest.test_case "reorder hold + flush" `Quick
      test_reorder_hold_and_flush;
    Alcotest.test_case "reorder timer release" `Quick
      test_reorder_timer_release;
    Alcotest.test_case "blackout window" `Quick test_blackout_window;
    Alcotest.test_case "payload corruption accounting" `Quick
      test_payload_corruption_accounting;
    Alcotest.test_case "header corruption accounting" `Quick
      test_header_corruption_accounting;
    Alcotest.test_case "RST on unknown tuple" `Quick test_rst_on_unknown_tuple;
    Alcotest.test_case "connect refused via RST" `Quick
      test_connect_refused_by_rst;
    Alcotest.test_case "SYN retry exhaustion" `Quick test_syn_retry_exhaustion;
    Alcotest.test_case "FIN retry cap" `Quick test_fin_retry_cap;
    Alcotest.test_case "reordering into TAS" `Quick test_reordering_into_tas;
    Alcotest.test_case "duplication into TAS" `Quick test_duplication_into_tas;
    Alcotest.test_case "tap observes handshake + options" `Quick
      test_tap_observes_handshake;
    Alcotest.test_case "tap ring limit" `Quick test_tap_ring_limit;
    Alcotest.test_case "TAS acks every data packet" `Quick
      test_tas_acks_every_data_packet;
  ]
