(* Unit and property tests for the protocol layer: headers, checksums,
   sequence arithmetic, wire round-trips. *)

module Addr = Tas_proto.Addr
module Seq32 = Tas_proto.Seq32
module Checksum = Tas_proto.Checksum
module Eth = Tas_proto.Eth_header
module Ipv4 = Tas_proto.Ipv4_header
module Tcp = Tas_proto.Tcp_header
module Packet = Tas_proto.Packet

(* --- Addresses ------------------------------------------------------------ *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Addr.ipv4_to_string (Addr.ipv4_of_string s)))
    [ "0.0.0.0"; "10.0.0.1"; "192.168.1.255"; "255.255.255.255" ]

let test_ipv4_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Addr.ipv4_of_string s);
           false
         with Invalid_argument _ -> true))
    [ "1.2.3"; "1.2.3.4.5"; "1.2.3.256"; "a.b.c.d"; "" ]

let test_host_addressing () =
  Alcotest.(check int) "host ip inverse" 1234
    (Addr.host_id_of_ip (Addr.host_ip 1234));
  Alcotest.(check bool) "distinct hosts distinct ips" true
    (Addr.host_ip 1 <> Addr.host_ip 2)

let test_four_tuple_flip () =
  let t =
    {
      Addr.Four_tuple.local_ip = Addr.host_ip 1;
      local_port = 80;
      peer_ip = Addr.host_ip 2;
      peer_port = 45000;
    }
  in
  let f = Addr.Four_tuple.flip t in
  Alcotest.(check bool) "flip . flip = id" true
    (Addr.Four_tuple.equal t (Addr.Four_tuple.flip f));
  Alcotest.(check bool) "flip differs" false (Addr.Four_tuple.equal t f);
  Alcotest.(check int) "sym_hash invariant under flip"
    (Addr.Four_tuple.sym_hash t) (Addr.Four_tuple.sym_hash f)

(* --- Seq32 ----------------------------------------------------------------- *)

let test_seq_wraparound () =
  let near_max = Seq32.of_int 0xFFFF_FFF0 in
  let wrapped = Seq32.add near_max 0x20 in
  Alcotest.(check int) "wraps modulo 2^32" 0x10 wrapped;
  Alcotest.(check bool) "wrapped value is after" true (Seq32.gt wrapped near_max);
  Alcotest.(check int) "diff across wrap" 0x20 (Seq32.diff wrapped near_max);
  Alcotest.(check int) "negative diff across wrap" (-0x20)
    (Seq32.diff near_max wrapped)

let test_seq_between () =
  Alcotest.(check bool) "in window" true
    (Seq32.between 150 ~low:100 ~high:200);
  Alcotest.(check bool) "below window" false
    (Seq32.between 50 ~low:100 ~high:200);
  Alcotest.(check bool) "at high edge excluded" false
    (Seq32.between 200 ~low:100 ~high:200);
  (* Window spanning the wrap point. *)
  let low = Seq32.of_int 0xFFFF_FF00 in
  let high = Seq32.add low 0x200 in
  Alcotest.(check bool) "wrap window contains 0" true
    (Seq32.between 0 ~low ~high)

let prop_seq_add_diff =
  QCheck.Test.make ~name:"seq32: diff (add s n) s = n" ~count:1000
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range (-1_000_000) 1_000_000))
    (fun (s, n) ->
      let s = Seq32.of_int s in
      Seq32.diff (Seq32.add s n) s = n)

let prop_seq_ordering_antisym =
  QCheck.Test.make ~name:"seq32: lt is antisymmetric" ~count:1000
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b) ->
      let a = Seq32.of_int a and b = Seq32.of_int b in
      if a = b then (not (Seq32.lt a b)) && not (Seq32.gt a b)
      else not (Seq32.lt a b && Seq32.lt b a))

(* --- Checksum --------------------------------------------------------------- *)

let test_checksum_verify () =
  let buf = Bytes.of_string "\x45\x00\x00\x28\x00\x01\x00\x00\x40\x06\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let csum = Checksum.compute buf ~off:0 ~len:(Bytes.length buf) in
  Bytes.set buf 10 (Char.chr (csum lsr 8));
  Bytes.set buf 11 (Char.chr (csum land 0xff));
  Alcotest.(check bool) "self-verifies" true
    (Checksum.verify buf ~off:0 ~len:(Bytes.length buf))

let test_checksum_detects_corruption () =
  let buf = Bytes.make 40 '\x2a' in
  let csum = Checksum.compute buf ~off:0 ~len:40 in
  Bytes.set buf 10 (Char.chr (csum lsr 8));
  Bytes.set buf 11 (Char.chr (csum land 0xff));
  Bytes.set buf 20 '\x2b';
  Alcotest.(check bool) "corruption detected" false
    (Checksum.verify buf ~off:0 ~len:40)

let test_checksum_odd_length () =
  let buf = Bytes.of_string "abc" in
  let c = Checksum.compute buf ~off:0 ~len:3 in
  Alcotest.(check bool) "odd length yields a 16-bit value" true
    (c >= 0 && c <= 0xffff)

(* --- Header round-trips ------------------------------------------------------ *)

let test_eth_roundtrip () =
  let h = { Eth.dst = Addr.host_mac 5; src = Addr.host_mac 9;
            ethertype = Eth.ethertype_ipv4 } in
  let buf = Bytes.create Eth.size in
  ignore (Eth.write h buf ~off:0);
  let h' = Eth.read buf ~off:0 in
  Alcotest.(check bool) "eth round-trip" true (h = h')

let test_ipv4_header_roundtrip () =
  let h =
    {
      Ipv4.src = Addr.host_ip 3;
      dst = Addr.host_ip 4;
      protocol = Ipv4.protocol_tcp;
      ttl = 64;
      ecn = Ipv4.Ect0;
      dscp = 0;
      ident = 777;
      total_length = 1500;
    }
  in
  let buf = Bytes.create Ipv4.size in
  ignore (Ipv4.write h buf ~off:0);
  Alcotest.(check bool) "checksum valid" true (Ipv4.checksum_ok buf ~off:0);
  let h' = Ipv4.read buf ~off:0 in
  Alcotest.(check bool) "ipv4 round-trip" true (h = h')

let test_ecn_codepoints () =
  List.iter
    (fun ecn ->
      let h =
        {
          Ipv4.src = 1; dst = 2; protocol = 6; ttl = 1; ecn; dscp = 5;
          ident = 0; total_length = 20;
        }
      in
      let buf = Bytes.create Ipv4.size in
      ignore (Ipv4.write h buf ~off:0);
      let h' = Ipv4.read buf ~off:0 in
      Alcotest.(check bool) "ecn preserved" true (h'.Ipv4.ecn = ecn);
      Alcotest.(check int) "dscp preserved" 5 h'.Ipv4.dscp)
    [ Ipv4.Not_ect; Ipv4.Ect0; Ipv4.Ect1; Ipv4.Ce ]

let tcp_gen =
  QCheck.Gen.(
    let* src_port = int_range 1 65535 in
    let* dst_port = int_range 1 65535 in
    let* seq = int_bound 0xFFFFFFF in
    let* ack = int_bound 0xFFFFFFF in
    let* window = int_bound 65535 in
    let* syn = bool and* ackf = bool and* fin = bool and* psh = bool
    and* ece = bool in
    let* with_mss = bool and* with_ts = bool and* with_ws = bool in
    let* mss = int_range 536 9000 in
    let* ts1 = int_bound 0xFFFFFFF and* ts2 = int_bound 0xFFFFFFF in
    let* ws = int_range 0 14 in
    (* Up to two SACK blocks beside the other options (2 + 8n bytes stays
       inside the 40-byte option budget even with mss + ws + ts). *)
    let* n_sack = int_bound 2 in
    let* sack =
      list_repeat n_sack
        (let* start = int_bound 0xFFFFFFFF in
         let* len = int_range 1 65535 in
         return (Seq32.of_int start, Seq32.add (Seq32.of_int start) len))
    in
    return
      (Tcp.make
         ?mss:(if with_mss then Some mss else None)
         ?wscale:(if with_ws then Some ws else None)
         ?ts:(if with_ts then Some (ts1, ts2) else None)
         ~sack ~src_port ~dst_port ~seq ~ack
         ~flags:{ Tcp.no_flags with syn; ack = ackf; fin; psh; ece }
         ~window ()))

let prop_tcp_header_roundtrip =
  QCheck.Test.make ~name:"tcp header: read . write = id" ~count:500
    (QCheck.make tcp_gen) (fun h ->
      let buf = Bytes.make 64 '\x00' in
      let n = Tcp.write h buf ~off:0 in
      let h', n' = Tcp.read buf ~off:0 in
      n = n' && h = h')

let prop_packet_wire_roundtrip =
  QCheck.Test.make ~name:"packet: of_wire . to_wire = id, checksum valid"
    ~count:300
    QCheck.(pair (QCheck.make tcp_gen) (string_of_size Gen.(int_bound 1460)))
    (fun (tcp, payload) ->
      let pkt =
        Packet.make ~src_mac:(Addr.host_mac 1) ~dst_mac:(Addr.host_mac 2)
          ~src_ip:(Addr.host_ip 1) ~dst_ip:(Addr.host_ip 2) ~tcp
          ~payload:(Bytes.of_string payload) ()
      in
      let wire = Packet.to_wire pkt in
      let pkt' = Packet.of_wire wire in
      Packet.tcp_checksum_ok wire
      && pkt'.Packet.tcp = pkt.Packet.tcp
      && Bytes.equal pkt'.Packet.payload pkt.Packet.payload
      && pkt'.Packet.ip = pkt.Packet.ip
      && pkt'.Packet.eth = pkt.Packet.eth)

let test_sack_option_full_budget () =
  (* Three SACK blocks (26 bytes) beside a timestamp (10 bytes) is the RFC
     2018 maximum layout — it must fit the 40-byte option budget and
     round-trip exactly, including a block spanning the 2^32 wrap. *)
  let wrap_start = Seq32.of_int 0xFFFF_FF00 in
  let sack =
    [
      (Seq32.of_int 9000, Seq32.of_int 10448);
      (wrap_start, Seq32.add wrap_start 512);
      (Seq32.of_int 4000, Seq32.of_int 5448);
    ]
  in
  let h =
    Tcp.make ~ts:(7, 9) ~sack ~src_port:1 ~dst_port:2 ~seq:100 ~ack:200
      ~flags:{ Tcp.no_flags with Tcp.ack = true }
      ~window:65535 ()
  in
  let buf = Bytes.make 64 '\x00' in
  let n = Tcp.write h buf ~off:0 in
  Alcotest.(check bool) "within the 60-byte header maximum" true (n <= 60);
  let h', n' = Tcp.read buf ~off:0 in
  Alcotest.(check int) "read length agrees" n n';
  Alcotest.(check bool) "blocks and order preserved" true (h = h')

let test_sack_empty_is_free () =
  (* The default path advertises no SACK blocks; that must cost zero wire
     bytes — the header encodes exactly as the seed did. *)
  let base ?sack () =
    let h =
      Tcp.make ?sack ~src_port:1 ~dst_port:2 ~seq:1 ~ack:2
        ~flags:Tcp.data_flags ~window:1000 ()
    in
    Tcp.write h (Bytes.make 64 '\x00') ~off:0
  in
  Alcotest.(check int) "no-options size unchanged" (base ()) (base ~sack:[] ())

let test_sack_flat_option () =
  (* Blocks are appended in wire order and read back in place; a fourth
     does not fit. A received option with four blocks keeps the first
     three. *)
  let h =
    Tcp.make ~src_port:1 ~dst_port:2 ~seq:1 ~ack:2 ~flags:Tcp.ack_flags
      ~window:1000 ()
  in
  Alcotest.(check int) "starts empty" 0 h.Tcp.sack_n;
  List.iter (fun (s, e) -> Tcp.add_sack_block h s e) [ (10, 20); (30, 40); (50, 60) ];
  Alcotest.(check (pair int int)) "block 1" (30, 40)
    (Tcp.sack_start h 1, Tcp.sack_end h 1);
  Alcotest.check_raises "fourth block"
    (Invalid_argument "Tcp_header.add_sack_block: option full") (fun () ->
      Tcp.add_sack_block h 70 80);
  let buf = Bytes.make 64 '\x00' in
  let n = Tcp.write h buf ~off:0 in
  (* Rewrite the option as four blocks: kind 5, length 34, a fourth block
     past the third, and the header length grown to cover it. *)
  let opt = 20 in
  Alcotest.(check int) "sack kind" 5 (Char.code (Bytes.get buf opt));
  Bytes.set buf (opt + 1) (Char.chr 34);
  Bytes.blit (Bytes.sub buf (opt + 18) 8) 0 buf (opt + 26) 8;
  Bytes.set buf 12 (Char.chr (((n + 8) / 4) lsl 4));
  let h', n' = Tcp.read buf ~off:0 in
  Alcotest.(check int) "longer header" (n + 8) n';
  Alcotest.(check (list (pair int int))) "first three kept"
    [ (10, 20); (30, 40); (50, 60) ] (Tcp.sack_blocks h');
  (* Refilling clears the option. *)
  Tcp.fill h ~src_port:1 ~dst_port:2 ~seq:1 ~ack:2 ~flags:Tcp.ack_flags
    ~window:1000 ~ts_val:1 ~ts_ecr:0;
  Alcotest.(check int) "fill clears it" 0 h.Tcp.sack_n

let test_wire_checksum_detects_payload_corruption () =
  let tcp =
    (Tcp.make ~src_port:1 ~dst_port:2 ~seq:3 ~ack:4 ~flags:Tcp.data_flags
       ~window:100 ())
  in
  let pkt =
    Packet.make ~src_mac:1 ~dst_mac:2 ~src_ip:(Addr.host_ip 1)
      ~dst_ip:(Addr.host_ip 2) ~tcp ~payload:(Bytes.of_string "hello world") ()
  in
  let wire = Packet.to_wire pkt in
  let len = Bytes.length wire in
  Bytes.set wire (len - 1) 'X';
  Alcotest.(check bool) "corrupted payload fails checksum" false
    (Packet.tcp_checksum_ok wire)

let test_flow_hash_symmetric () =
  let tcp =
    (Tcp.make ~src_port:1111 ~dst_port:22 ~seq:0 ~ack:0 ~flags:Tcp.data_flags
       ~window:0 ())
  in
  let fwd =
    Packet.make ~src_mac:1 ~dst_mac:2 ~src_ip:(Addr.host_ip 1)
      ~dst_ip:(Addr.host_ip 2) ~tcp ~payload:Bytes.empty ()
  in
  let rev_tcp = { tcp with Tcp.src_port = 22; dst_port = 1111 } in
  let rev =
    Packet.make ~src_mac:2 ~dst_mac:1 ~src_ip:(Addr.host_ip 2)
      ~dst_ip:(Addr.host_ip 1) ~tcp:rev_tcp ~payload:Bytes.empty ()
  in
  Alcotest.(check int) "both directions hash alike" (Packet.flow_hash fwd)
    (Packet.flow_hash rev)

(* --- Allocation ----------------------------------------------------------- *)

(* A warm serialize + parse round trip of a 512 B segment with the
   timestamp option: the wire image, the parsed headers and the payload
   copy. Pinned at the measured 187 words. *)
let wire_roundtrip_words = 187.0

let test_wire_roundtrip_words () =
  let tcp =
    Tcp.make ~ts:(1, 2) ~src_port:1234 ~dst_port:80 ~seq:7 ~ack:9
      ~flags:Tcp.data_flags ~window:1024 ()
  in
  let pkt =
    Packet.make ~src_mac:(Addr.host_mac 0) ~dst_mac:(Addr.host_mac 1)
      ~src_ip:0x0a000001 ~dst_ip:0x0a000002 ~tcp
      ~payload:(Bytes.make 512 'x') ()
  in
  let roundtrip () = ignore (Packet.of_wire (Packet.to_wire pkt)) in
  roundtrip ();
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    roundtrip ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (float 0.)) "words per round trip" wire_roundtrip_words words

let suite =
  [
    Alcotest.test_case "ipv4 string round-trip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 malformed rejected" `Quick test_ipv4_malformed;
    Alcotest.test_case "host addressing" `Quick test_host_addressing;
    Alcotest.test_case "four-tuple flip & sym hash" `Quick test_four_tuple_flip;
    Alcotest.test_case "seq32 wrap-around" `Quick test_seq_wraparound;
    Alcotest.test_case "seq32 between" `Quick test_seq_between;
    Alcotest.test_case "checksum verify" `Quick test_checksum_verify;
    Alcotest.test_case "checksum detects corruption" `Quick
      test_checksum_detects_corruption;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "eth round-trip" `Quick test_eth_roundtrip;
    Alcotest.test_case "ipv4 header round-trip" `Quick test_ipv4_header_roundtrip;
    Alcotest.test_case "ecn codepoints" `Quick test_ecn_codepoints;
    Alcotest.test_case "flat sack option" `Quick test_sack_flat_option;
    Alcotest.test_case "sack option at full budget" `Quick
      test_sack_option_full_budget;
    Alcotest.test_case "empty sack list costs no wire bytes" `Quick
      test_sack_empty_is_free;
    Alcotest.test_case "wire checksum catches corruption" `Quick
      test_wire_checksum_detects_payload_corruption;
    Alcotest.test_case "flow hash symmetric" `Quick test_flow_hash_symmetric;
    Alcotest.test_case "wire round trip allocates 187 words" `Quick
      test_wire_roundtrip_words;
    QCheck_alcotest.to_alcotest prop_seq_add_diff;
    QCheck_alcotest.to_alcotest prop_seq_ordering_antisym;
    QCheck_alcotest.to_alcotest prop_tcp_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_packet_wire_roundtrip;
  ]
