(* Pooled packets: ownership, reuse and the allocation-free segment path.

   - Refcount discipline: a second release, or a retain after the last
     release, raises; a released pool packet goes back to its home pool
     with its owned payload recycled.
   - No leaks: a TAS<->TAS run with drops, duplicates, corruption and
     reordering in both directions, plus a small tap ring, returns every
     packet to its pool and every payload buffer to the buffer pool.
   - Aliasing: a tapped packet that a queue ECN-marks keeps its own
     ECT(0) header while the pool recycles other packets; a tapped run's
     pcap image is byte-identical to the one captured before packets were
     pooled.
   - Wire format: the flat timestamp fields encode exactly the bytes the
     option-record header encoded.
   - The warm Reno segment path allocates nothing; a warm 16-flow bulk
     TAS<->TAS transfer is pinned at its minor and major words per
     packet.
   - Port exhaustion refuses the connect instead of raising. *)

module Sim = Tas_engine.Sim
module Rng = Tas_engine.Rng
module Time_ns = Tas_engine.Time_ns
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ipv4 = Tas_proto.Ipv4_header
module Buf_pool = Tas_buffers.Buf_pool
module Ring = Tas_buffers.Ring_buffer
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Tap = Tas_netsim.Tap
module Pcap = Tas_netsim.Pcap
module Fault = Tas_netsim.Fault
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Slow_path = Tas_core.Slow_path
module Flow_state = Tas_core.Flow_state
module Rate_bucket = Tas_core.Rate_bucket

let take_filled pool ~seq ~payload =
  let pkt = Packet.take pool in
  Tcp.fill pkt.Packet.tcp ~src_port:1 ~dst_port:2 ~seq ~ack:0
    ~flags:Tcp.data_flags ~window:1000 ~ts_val:1 ~ts_ecr:0;
  Packet.fill pkt ~src_mac:1 ~dst_mac:2 ~src_ip:(Addr.host_ip 1)
    ~dst_ip:(Addr.host_ip 2) ~ecn:Ipv4.Ect0 ~payload;
  pkt

(* --- Refcount discipline ------------------------------------------------ *)

let released = "packet already released (no reference left)"

let test_refcount_checks () =
  let pool = Packet.Pool.create () in
  let p = take_filled pool ~seq:1 ~payload:(Bytes.create 10) in
  Alcotest.(check int) "taken" 1 (Packet.Pool.outstanding pool);
  Packet.retain p;
  Packet.release p;
  Alcotest.(check int) "still out while referenced" 1
    (Packet.Pool.outstanding pool);
  Packet.release p;
  Alcotest.(check (pair int int)) "home again" (0, 1)
    (Packet.Pool.outstanding pool, Packet.Pool.held pool);
  Alcotest.check_raises "double release"
    (Invalid_argument ("Packet.release: " ^ released)) (fun () ->
      Packet.release p);
  Alcotest.check_raises "retain after release"
    (Invalid_argument ("Packet.retain: " ^ released)) (fun () ->
      Packet.retain p);
  let q = take_filled pool ~seq:2 ~payload:Bytes.empty in
  Alcotest.(check bool) "LIFO reuse" true (p == q);
  Alcotest.(check int) "no fresh packet for a warm pool" 1
    (Packet.Pool.created pool);
  Packet.release q

(* --- TAS<->TAS harness --------------------------------------------------- *)

let host sim ~id endpoint =
  let tas =
    Tas.create sim ~nic:endpoint.Topology.nic ~config:Config.default ()
  in
  let core = Core.create sim ~id:(100 + id) () in
  (tas, Tas.app tas ~app_cores:[| core |] ~api:Libtas.Sockets)

(* [conns] client connections from host a to host b, each sending [bytes]
   then closing; the server closes on EOF. Returns the bytes the server
   received per connection, in connect order, and the number of sockets
   fully closed on both sides. *)
let transfer sim net ~conns ~bytes =
  let _, client = host sim ~id:0 net.Topology.a in
  let _, server = host sim ~id:1 net.Topology.b in
  let received = Array.init conns (fun _ -> Buffer.create bytes) in
  let closed = ref 0 in
  let next = ref 0 in
  Libtas.listen server ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      let k = !next in
      incr next;
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun _ d -> Buffer.add_bytes received.(k) d);
        on_peer_closed = Libtas.close;
        on_closed = (fun _ -> incr closed);
      });
  for k = 0 to conns - 1 do
    let out = Bytes.init bytes (fun i -> Char.chr (((i * 7) + k) land 0xff)) in
    let sent = ref 0 in
    let rec pump sock =
      if !sent < bytes then begin
        let len = min 4096 (bytes - !sent) in
        let n = Libtas.send sock (Bytes.sub out !sent len) in
        sent := !sent + n;
        if n > 0 then pump sock
      end
      else Libtas.close sock
    in
    (* Connect one at a time so the server numbers them in order. *)
    ignore
      (Sim.schedule sim (k * 200_000) (fun () ->
           ignore
             (Libtas.connect client ~ctx:0
                ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:7
                {
                  Libtas.null_handlers with
                  Libtas.on_connected = pump;
                  on_sendable = pump;
                  on_closed = (fun _ -> incr closed);
                })))
  done;
  (received, closed)

(* --- Leaks under faults --------------------------------------------------- *)

let test_no_leaks_under_faults () =
  let sim = Sim.create () in
  let rng = Rng.create 17 in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let spec =
    {
      Fault.passthrough with
      Fault.uniform_loss = 0.01;
      dup_rate = 0.01;
      corrupt_rate = 0.01;
      corrupt_header_fraction = 0.5;
      reorder =
        Some { Fault.reorder_rate = 0.02; reorder_window = 3;
               max_hold_ns = 50_000 };
    }
  in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let ab = Fault.create sim (Rng.split rng) spec in
  let ba = Fault.create sim (Rng.split rng) spec in
  (* A small tap ring ahead of one fault stage: it evicts (and releases)
     throughout the run and is cleared at the end. *)
  let tap = Tap.create ~limit:32 () in
  Port.set_deliver net.Topology.a.Topology.uplink
    (Tap.wrap tap sim (Fault.wrap ab (Nic.input nic_b)));
  Port.set_deliver net.Topology.b.Topology.uplink
    (Fault.wrap ba (Nic.input nic_a));
  let bufs = Buf_pool.local () in
  let live0 = Buf_pool.live bufs in
  let conns = 4 and bytes = 200_000 in
  let received, closed = transfer sim net ~conns ~bytes in
  Sim.run ~until:(Time_ns.sec 30) sim;
  Alcotest.(check int) "every socket closed" (2 * conns) !closed;
  Array.iteri
    (fun k b ->
      Alcotest.(check int) (Printf.sprintf "conn %d complete" k) bytes
        (Buffer.length b))
    received;
  let c = Fault.counters ab and c' = Fault.counters ba in
  Alcotest.(check bool) "every fault kind fired" true
    (Fault.total_drops c > 0 && c.Fault.dups > 0 && c.Fault.header_corrupts > 0
     && c.Fault.payload_corrupts > 0 && c.Fault.reorder_holds > 0
     && Fault.total_drops c' > 0);
  Alcotest.(check int) "tap ring full" 32 (Tap.count tap);
  Tap.clear tap;
  let pool nic = Packet.Pool.outstanding (Nic.packet_pool nic) in
  Alcotest.(check (pair int int)) "every packet back in its pool" (0, 0)
    (pool nic_a, pool nic_b);
  Alcotest.(check int) "every payload buffer back" live0 (Buf_pool.live bufs)

(* --- Aliasing ------------------------------------------------------------ *)

(* A packet a tap still holds is marked on a private copy; the tap's packet
   keeps its own header while the pool recycles everything else. *)
let test_tapped_ecn_mark_keeps_original () =
  let sim = Sim.create () in
  let pool = Packet.Pool.create () in
  let port = Port.create sim ~rate_bps:1e9 ~delay:1_000 ~ecn_threshold:0 () in
  let delivered = ref [] in
  Port.set_deliver port (fun p ->
      delivered :=
        (p.Packet.tcp.Tcp.seq, p.Packet.ip.Ipv4.ecn) :: !delivered;
      Packet.release p);
  let tap = Tap.create () in
  let send_tapped = Tap.wrap tap sim (Port.enqueue port) in
  send_tapped (take_filled pool ~seq:7 ~payload:(Bytes.make 300 'a'));
  (* Untapped traffic recycles through the same pool meanwhile. *)
  for i = 1 to 50 do
    Port.enqueue port (take_filled pool ~seq:(1000 + i) ~payload:Bytes.empty);
    Sim.run sim
  done;
  Alcotest.(check bool) "every delivery was marked" true
    (List.for_all (fun (_, e) -> e = Ipv4.Ce) !delivered);
  Alcotest.(check bool) "the tapped segment was delivered marked" true
    (List.mem (7, Ipv4.Ce) !delivered);
  (match Tap.records tap with
  | [ { Tap.pkt; _ } ] ->
    Alcotest.(check int) "tap keeps its seq" 7 pkt.Packet.tcp.Tcp.seq;
    Alcotest.(check bool) "tap keeps ECT(0)" true
      (pkt.Packet.ip.Ipv4.ecn = Ipv4.Ect0);
    Alcotest.(check bool) "tap keeps its payload" true
      (Bytes.equal pkt.Packet.payload (Bytes.make 300 'a'))
  | _ -> Alcotest.fail "expected one tap record");
  Alcotest.(check int) "only the tapped packet is out" 1
    (Packet.Pool.outstanding pool);
  Tap.clear tap;
  Alcotest.(check int) "tap clear returns it" 0 (Packet.Pool.outstanding pool)

(* TAS<->TAS bulk through a marking bottleneck, tapped ahead of it. The
   digest was captured from the same scenario before packets were pooled
   (when each mark built a fresh packet): marks on copies, pool reuse and
   release at drop sites leave every captured byte as it was. *)
let tapped_run_pcap_digest () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let bottleneck =
    Port.create sim ~rate_bps:4e9 ~delay:1_000 ~capacity_pkts:64
      ~ecn_threshold:4 ()
  in
  Port.set_deliver bottleneck (Nic.input net.Topology.b.Topology.nic);
  let tap = Tap.create () in
  Port.set_deliver net.Topology.a.Topology.uplink
    (Tap.wrap tap sim (Port.enqueue bottleneck));
  let received, _ = transfer sim net ~conns:3 ~bytes:150_000 in
  Sim.run ~until:(Time_ns.ms 200) sim;
  Array.iter
    (fun b -> Alcotest.(check int) "complete" 150_000 (Buffer.length b))
    received;
  Alcotest.(check bool) "the bottleneck marked" true
    (Port.marks bottleneck > 0);
  Digest.to_hex (Digest.bytes (Pcap.to_bytes (Tap.records tap)))

let test_tapped_pcap_pinned () =
  Alcotest.(check string) "pcap digest as before pooling"
    "a1df09bcc218dfe680008d6e9a2b20b6" (tapped_run_pcap_digest ())

(* --- Wire format -------------------------------------------------------- *)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* Encodings captured from the header with an option record. *)
let test_timestamp_encoding_pinned () =
  let hdr ?mss ?wscale ?ts ?sack ~flags () =
    Tcp.make ?mss ?wscale ?ts ?sack ~src_port:5001 ~dst_port:40000
      ~seq:0xDEADBEEF ~ack:0x12345678 ~flags ~window:0xFFFF ()
  in
  let cases =
    [
      ( "data_ts", hdr ~flags:Tcp.data_flags ~ts:(0xFFFFFFFF, 1) (),
        "13899c40deadbeef123456788018ffff00000000080affffffff000000010101" );
      ( "ack_ts", hdr ~flags:Tcp.ack_flags ~ts:(123456789, 987654321) (),
        "13899c40deadbeef123456788010ffff00000000080a075bcd153ade68b10101" );
      ( "syn_all",
        hdr ~flags:{ Tcp.no_flags with Tcp.syn = true } ~mss:1448 ~wscale:7
          ~ts:(42, 0) (),
        "13899c40deadbeef12345678a002ffff00000000020405a8030307080a0000002a00000000010101"
      );
      ( "ack_sack",
        hdr ~flags:Tcp.ack_flags ~ts:(7, 9)
          ~sack:[ (100, 200); (300, 400); (0xFFFFFF00, 0x10) ] (),
        "13899c40deadbeef12345678e010ffff00000000080a0000000700000009051a00000064000000c80000012c00000190ffffff0000000010"
      );
      ( "bare", hdr ~flags:Tcp.data_flags (),
        "13899c40deadbeef123456785018ffff00000000" );
    ]
  in
  List.iter
    (fun (name, h, want) ->
      let b = Bytes.make (Tcp.size h) '\x00' in
      ignore (Tcp.write h b ~off:0);
      Alcotest.(check string) (name ^ " bytes") want (hex b);
      let h', n = Tcp.read b ~off:0 in
      Alcotest.(check int) (name ^ " length") (Bytes.length b) n;
      Alcotest.(check bool) (name ^ " round-trips") true (h = h');
      (* A pooled header refilled in place encodes the same bytes. *)
      if h.Tcp.has_ts && h.Tcp.mss = None then begin
        let r = Tcp.make ~ts:(5, 5) ~sack:[ (1, 2) ] ~src_port:0 ~dst_port:0
            ~seq:0 ~ack:0 ~flags:Tcp.no_flags ~window:0 ()
        in
        Tcp.fill r ~src_port:h.Tcp.src_port ~dst_port:h.Tcp.dst_port
          ~seq:h.Tcp.seq ~ack:h.Tcp.ack ~flags:h.Tcp.flags ~window:h.Tcp.window
          ~ts_val:h.Tcp.ts_val ~ts_ecr:h.Tcp.ts_ecr;
        List.iter (fun (s, e) -> Tcp.add_sack_block r s e) (Tcp.sack_blocks h);
        let b' = Bytes.make (Tcp.size r) '\x00' in
        ignore (Tcp.write r b' ~off:0);
        Alcotest.(check string) (name ^ " refilled") want (hex b')
      end)
    cases

(* --- Allocation-free segment path --------------------------------------- *)

(* Two fast paths joined by a link, one Reno flow each way of one
   connection, no slow path or application: host a's transmit ring feeds
   [maybe_send], host b's [process] delivers in order and ACKs, host a's
   [process] takes the ACKs and sends on. After a warm-up transfer of the
   same size, which grows the pools, the event heap and the FIFOs to their
   peaks, a second one allocates nothing. *)
let test_segment_path_allocation () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:1 () in
  let nic_a = net.Topology.a.Topology.nic
  and nic_b = net.Topology.b.Topology.nic in
  let config = Config.default in
  let fast_path nic id =
    let cores = [| Core.create sim ~id () |] in
    let fp = Fast_path.create sim ~nic ~cores ~config in
    Fast_path.attach fp;
    fp
  in
  let fp_a = fast_path nic_a 0 and fp_b = fast_path nic_b 1 in
  let buf = 1 lsl 20 in
  let flow fp ~nic ~peer ~local_port ~peer_port ~tx_iss ~rx_next =
    let f =
      Flow_state.create ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
        ~pool:(Ring.Pool.create ()) ~opaque:1 ~context:0
        ~bucket:
          (Rate_bucket.create sim (Rate_bucket.Rate 5e9) ~burst_bytes:65536)
        ~rx_buf_size:buf ~tx_buf_size:buf ~local_port ~peer_ip:(Nic.ip peer)
        ~peer_port ~peer_mac:(Nic.mac peer) ~tx_iss ~rx_next ~window:buf
        ~peer_wscale:Tcp.wscale ()
    in
    Fast_path.install_flow fp
      ~tuple:
        {
          Addr.Four_tuple.local_ip = Nic.ip nic;
          local_port;
          peer_ip = Nic.ip peer;
          peer_port;
        }
      f;
    f
  in
  let a = flow fp_a ~nic:nic_a ~peer:nic_b ~local_port:5001 ~peer_port:9000
      ~tx_iss:1000 ~rx_next:7000
  and b = flow fp_b ~nic:nic_b ~peer:nic_a ~local_port:9000 ~peer_port:5001
      ~tx_iss:7000 ~rx_next:1000
  in
  let chunk = Bytes.make 65536 'x' in
  let send_and_drain n =
    let pushed = ref 0 in
    while !pushed < n do
      pushed := !pushed + Ring.push (Flow_state.tx_buf a) chunk ~off:0
          ~len:(min 65536 (n - !pushed))
    done;
    Fast_path.notify_tx fp_a a;
    Sim.run sim;
    (* The receiving application: consume what arrived. *)
    Ring.advance_tail (Flow_state.rx_buf b) (Ring.used (Flow_state.rx_buf b))
  in
  send_and_drain 600_000;
  let segs () = (Fast_path.stats fp_a).Fast_path.tx_data_packets in
  let s0 = segs () in
  let w0 = Gc.minor_words () in
  send_and_drain 600_000;
  let words = Gc.minor_words () -. w0 in
  let n = segs () - s0 in
  Alcotest.(check bool) "at least 256 segments" true (n >= 256);
  Alcotest.(check int) "all acknowledged" 0 (Flow_state.tx_sent a);
  Alcotest.(check (float 0.)) "0 words per segment" 0. words

(* --- Warm TAS<->TAS allocation -------------------------------------------- *)

(* A TAS host as the warm-allocation pins drive it: two fast-path cores,
   128 KB buffers, two application cores behind the sockets API. *)
let wide_host sim endpoint =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 131072;
      tx_buf_size = 131072;
    }
  in
  let tas = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
  let cores = Array.init 2 (fun i -> Core.create sim ~id:(500 + i) ()) in
  let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
  (tas, Tas_apps.Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))

(* Two [wide_host]s over a 10G link that marks ECN above 65 packets. *)
let wide_pair sim =
  let spec = Topology.link_10g ~ecn_threshold:65 () in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  (net, wide_host sim net.Topology.a, wide_host sim net.Topology.b)

let median3 = function
  | [ a; b; c ] -> max (min a b) (min (max a b) c)
  | _ -> invalid_arg "median3"

(* Minor and major words per operation of [sim], each the median of three
   consecutive 4 ms windows; [ops ()] counts operations so far. Major words
   come from [Gc.quick_stat]: what goes straight to the major heap or is
   promoted, which the minor count cannot see. *)
let words_per_op sim ~ops =
  let window () =
    let o0 = ops () in
    let major0 = (Gc.quick_stat ()).Gc.major_words in
    let w0 = Gc.minor_words () in
    Sim.run ~until:(Sim.now sim + Time_ns.ms 4) sim;
    let minor = Gc.minor_words () -. w0 in
    let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
    let n = float_of_int (max 1 (ops () - o0)) in
    (minor /. n, major /. n)
  in
  let ws = List.init 3 (fun _ -> window ()) in
  (median3 (List.map fst ws), median3 (List.map snd ws))

(* 16 TAS<->TAS connections that keep their transmit buffers full: the
   fast path's segmentation and ACK processing at full-size packets. An
   operation is a packet: data and ACKs received, data and ACKs sent, on
   both hosts. Returns the words per packet once the flows run at rate. *)
let bulk_words_per_packet () =
  let sim = Sim.create () in
  let net, (tas_a, sender), (tas_b, receiver) = wide_pair sim in
  let module Transport = Tas_apps.Transport in
  Transport.listen receiver ~port:5001 (fun _ -> Transport.null_handlers);
  let chunk = Bytes.create 16384 in
  let rec push conn = if Transport.send conn chunk > 0 then push conn in
  for _ = 1 to 16 do
    Transport.connect sender ~dst_ip:(Nic.ip net.Topology.b.Topology.nic)
      ~dst_port:5001 (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = push;
          Transport.on_sendable = push;
        })
  done;
  Sim.run ~until:(Time_ns.ms 10) sim;
  let pkts tas =
    let s = Tas.snapshot tas in
    s.Tas.rx_data_packets + s.Tas.rx_ack_packets + s.Tas.tx_data_packets
    + s.Tas.acks_sent
  in
  words_per_op sim ~ops:(fun () -> pkts tas_a + pkts tas_b)

(* Pinned at the measured values; the minor figure to the 1e-9 of its
   printed digits. *)
let bulk_minor_words_per_packet = 1.0004976775
let bulk_major_words_per_packet = 0.0

let test_bulk_words_per_packet () =
  (* An unmeasured run first fills the domain's [Buf_pool] with the
     payload buffers the transfer needs, so the figure does not depend on
     which tests ran before this one. *)
  ignore (bulk_words_per_packet ());
  let minor, major = bulk_words_per_packet () in
  Alcotest.(check (float 1e-9)) "minor words per packet"
    bulk_minor_words_per_packet minor;
  Alcotest.(check (float 0.)) "major words per packet"
    bulk_major_words_per_packet major

(* --- Port exhaustion ---------------------------------------------------- *)

(* Every port of the ephemeral range toward one peer address and port is
   taken: the next connect fails through its callback and is counted. *)
let test_port_exhaustion_refuses () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:1 () in
  (* Cheap connects, and a run that ends before the first handshake
     timeout, so no pending handshake gives its port back. *)
  let config = { Config.default with Config.sp_conn_cycles = 10 } in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let sp = Tas.slow_path tas in
  let dst_ip = Nic.ip net.Topology.b.Topology.nic in
  (* Nobody answers on host b: every SYN stays a pending handshake. *)
  let failed = ref [] in
  let cb =
    {
      Slow_path.established = ignore;
      failed = (fun _ e -> failed := e :: !failed);
      reset = ignore;
      peer_closed = ignore;
      closed = ignore;
    }
  in
  for i = 1 to 63_001 do
    Slow_path.connect sp ~opaque:i ~context_id:0 ~dst_ip ~dst_port:7 cb
  done;
  Sim.run ~until:(Fast_path.handshake_rto_ns / 2) sim;
  Alcotest.(check int) "one refusal" 1 (Slow_path.port_exhaustions sp);
  Alcotest.(check bool) "failed through the callback" true
    (!failed = [ Slow_path.Refused ]);
  let module Metrics = Tas_telemetry.Metrics in
  Alcotest.(check bool) "counter registered once it counts" true
    (List.exists
       (fun smp ->
         smp.Metrics.s_name = "sp_port_exhaustions"
         && smp.Metrics.s_value = Metrics.Counter 1)
       (Metrics.snapshot (Tas.metrics tas)))

let suite =
  [
    Alcotest.test_case "refcount: double release and retain raise" `Quick
      test_refcount_checks;
    Alcotest.test_case "no packet or buffer leaks under faults" `Quick
      test_no_leaks_under_faults;
    Alcotest.test_case "tapped ECN-marked packet keeps its header" `Quick
      test_tapped_ecn_mark_keeps_original;
    Alcotest.test_case "tapped run pcap pinned" `Quick test_tapped_pcap_pinned;
    Alcotest.test_case "timestamp option bytes pinned" `Quick
      test_timestamp_encoding_pinned;
    Alcotest.test_case "segment path allocates nothing" `Quick
      test_segment_path_allocation;
    Alcotest.test_case "warm bulk transfer words per packet" `Quick
      test_bulk_words_per_packet;
    Alcotest.test_case "port exhaustion refuses cleanly" `Quick
      test_port_exhaustion_refuses;
  ]
