(* Arena battery: the off-heap {!Flow_arena} backing of per-flow state.
   Three parts:

   - Pinned differential digests — seeded workloads (bulk echo, a
     chaos-style fault schedule, a sharded scale-down, a connect/close
     schedule that recycles slots and payload rings) once ran on both the
     arena and the boxed reference records they replaced, and both
     produced byte-identical metrics exports, trace streams, cycle
     breakdowns and flow dumps. The boxed records are gone; the md5 of
     that shared output is pinned here, so the arena-backed stack must
     keep producing it byte for byte.
   - Property/fuzz tests on the arena itself — alloc/free interleavings
     against a model (no slot aliasing, clean exhaustion, double-free
     rejection), Table-3 field round-trips at the declared offset/width
     including wraparound near 2^32, and random
     install/remove/lookup/migrate interleavings over a sharded fast path,
     and isolation of handles that outlive their slot.
   - Burst semantics — [Fast_path.process_burst] over N packets must be
     equivalent to N single-packet passes (same ACKs, retransmits, flow
     state), preserve per-flow payload ordering for interleaved flows, and
     handle empty/oversized bursts.

   Plus a JSON-shape regression pinning the [Tas.flows] output (the
   [flows] item of BENCH_dg.json). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Addr = Tas_proto.Addr
module Four_tuple = Addr.Four_tuple
module Packet = Tas_proto.Packet
module Tcp = Tas_proto.Tcp_header
module Ring = Tas_buffers.Ring_buffer
module Nic = Tas_netsim.Nic
module Fault = Tas_netsim.Fault
module Topology = Tas_netsim.Topology
module E = Tas_baseline.Tcp_engine
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Flow_table = Tas_core.Flow_table
module Flow_state = Tas_core.Flow_state
module Flow_arena = Tas_core.Flow_arena
module Slow_path = Tas_core.Slow_path
module Rate_bucket = Tas_core.Rate_bucket
module Scenario = Tas_experiments.Scenario
module Rpc_echo = Tas_apps.Rpc_echo
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module J = Tas_telemetry.Json

(* --- Pinned differential digests ------------------------------------------ *)

type observation = {
  json : string;
  events : Trace.event list;
  breakdown : (string * int) list;
  flows_dump : string;
}

(* Every export concatenated, so one byte of divergence anywhere changes
   the digest. *)
let digest_of o =
  let b = Buffer.create 65536 in
  Buffer.add_string b o.json;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%d:%s:%d:%d;" e.Trace.ts
           (Trace.kind_name e.Trace.kind) e.Trace.core e.Trace.flow))
    o.events;
  List.iter
    (fun (cat, ns) -> Buffer.add_string b (Printf.sprintf "%s=%d;" cat ns))
    o.breakdown;
  Buffer.add_string b o.flows_dump;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_pinned ~boxed o =
  Alcotest.(check string) "exports match the pinned arena == boxed digest"
    boxed (digest_of o)

let snap tas =
  {
    json = Metrics.to_json_string ~pretty:true (Tas.metrics tas);
    events = Trace.drain (Tas.trace tas);
    breakdown =
      List.map
        (fun (cat, ns) -> (Core.category_name cat, ns))
        (Tas.cycle_breakdown tas);
    flows_dump = J.to_string (Tas.flows tas);
  }

(* Bulk echo workload (the determinism suite's exchange-heavy run): [conns]
   engine clients each echo [rounds + i] 600 B messages; optional fault
   stages make it the chaos-style schedule. *)
let observe ?fault_ab ?fault_ba ?(trace_capacity = 4096)
    ?(conns = 8) ?(rounds = 20) ?(until_ms = 80) ~seed () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let net =
    Topology.point_to_point sim ?fault_ab ?fault_ba ~rng
      ~queues_per_nic:8 ()
  in
  let config =
    {
      Config.default with
      Config.trace_capacity = Some trace_capacity;
    }
  in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let app_core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _sock ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock data -> ignore (Libtas.send sock data));
      });
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  for i = 0 to conns - 1 do
    let remaining = ref (rounds + i) in
    let cb =
      {
        E.null_callbacks with
        E.on_connected =
          (fun c -> ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
        E.on_receive =
          (fun c d ->
            ignore d;
            decr remaining;
            if !remaining > 0 then
              ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
      }
    in
    ignore
      (E.connect client ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic)
         ~dst_port:7 cb)
  done;
  Sim.run ~until:(Time_ns.ms until_ms) sim;
  snap tas

let test_bulk_differential () =
  let a = observe ~seed:7 () in
  check_pinned ~boxed:"621b7ce5c9640a5b072a8a0cb768fab2" a;
  Alcotest.(check bool) "some trace events" true (List.length a.events > 100)

let test_bulk_differential_with_loss () =
  check_pinned ~boxed:"1c885ec5fae48d6f1a9c809ea9a1cfce"
    (observe ~fault_ab:(Fault.uniform_loss 0.02)
       ~fault_ba:(Fault.uniform_loss 0.02) ~seed:11 ())

(* Chaos-style schedule: bursty loss toward TAS, duplication + reordering
   on the return path — the `ch` experiment's "everything at once" shape,
   scaled down to a unit test. *)
let chaos_faults () =
  let fault_ab =
    {
      (Fault.bursty_of_rate ~rate:0.03 ~mean_burst_pkts:3.0) with
      Fault.dup_rate = 0.01;
    }
  in
  let fault_ba =
    {
      Fault.passthrough with
      Fault.dup_rate = 0.02;
      reorder =
        Some
          {
            Fault.reorder_rate = 0.05;
            reorder_window = 3;
            max_hold_ns = 200_000;
          };
    }
  in
  (fault_ab, fault_ba)

let test_chaos_differential () =
  let fault_ab, fault_ba = chaos_faults () in
  check_pinned ~boxed:"74f36fd47cb5d43c7769e31aff80503b"
    (observe ~fault_ab ~fault_ba ~seed:23 ())

(* Sharded scale-down: a saturated RPC-echo server on 4 active cores,
   scaled down to 1 mid-run (drain-in-place migration of every live flow). *)
let observe_sharded () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:4 () in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:6 ~split:(2, 4) ()
  in
  let tas = Option.get server.Scenario.tas in
  Fast_path.set_active_cores (Tas.fast_path tas) 4;
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size:64
    ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  let transport = Scenario.client_transport sim net.Topology.clients.(0) () in
  Rpc_echo.closed_loop_clients sim transport ~n:16 ~dst_ip:server.Scenario.ip
    ~dst_port:7 ~msg_size:64 ~pipeline:4 ~stagger_ns:2_000 ~stats ();
  ignore
    (Sim.schedule_at sim (Time_ns.ms 4) (fun () ->
         Fast_path.set_active_cores (Tas.fast_path tas) 1));
  Sim.run ~until:(Time_ns.ms 8) sim;
  let s = Tas.snapshot tas in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  ( Printf.sprintf "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d" s.Tas.flows s.Tas.conn_setups
      s.Tas.rx_data_packets s.Tas.rx_ack_packets s.Tas.tx_data_packets
      s.Tas.acks_sent s.Tas.ooo_stored s.Tas.exceptions_forwarded
      (Flow_table.migrated_flows ft)
      (Stats.Counter.value stats.Rpc_echo.completed),
    J.to_string (Tas.flows tas),
    ft )

let test_sharded_scale_down_differential () =
  let d1, flows1, ft1 = observe_sharded () in
  Alcotest.(check string) "counters + flows snapshot match the pinned digest"
    "7fb32e0497e0d80a20f7c790e2ada31c"
    (Digest.to_hex (Digest.string (d1 ^ flows1)));
  (* The scale-down actually migrated live flows onto shard 0. *)
  Alcotest.(check bool) "flows migrated" true
    (Flow_table.migrated_flows ft1 > 0);
  Alcotest.(check int) "all flows on shard 0" (Flow_table.count ft1)
    (Flow_table.shard_count ft1 0)

(* Connect/close schedule: eight engine clients each run five
   connect / 600 B echo / close cycles with staggered pauses, so flows come
   and go throughout and arena slots and payload rings recycle. *)
let observe_churn () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:8 () in
  let config =
    {
      Config.default with
      Config.trace_capacity = Some 4096;
    }
  in
  let tas = Tas.create sim ~nic:net.Topology.a.Topology.nic ~config () in
  let app_core = Core.create sim ~id:100 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _sock ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock data -> ignore (Libtas.send sock data));
        on_peer_closed = Libtas.close;
      });
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  let rec cycle i left =
    if left > 0 then begin
      let got = ref 0 in
      ignore
        (E.connect client
           ~dst_ip:(Tas_netsim.Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
           {
             E.null_callbacks with
             E.on_connected =
               (fun c ->
                 ignore (E.send c (Bytes.make 600 (Char.chr (65 + i)))));
             E.on_receive =
               (fun c d ->
                 got := !got + Bytes.length d;
                 if !got = 600 then begin
                   E.close c;
                   ignore
                     (Sim.schedule sim
                        (Time_ns.us (300 + (50 * i)))
                        (fun () -> cycle i (left - 1)))
                 end);
           })
    end
  in
  for i = 0 to 7 do
    ignore (Sim.schedule sim (Time_ns.us (20 * i)) (fun () -> cycle i 5))
  done;
  Sim.run ~until:(Time_ns.ms 40) sim;
  (snap tas, Tas.slow_path tas)

let test_churn_differential () =
  let a, sp = observe_churn () in
  check_pinned ~boxed:"3a45e1049d2a38002fc5d2fc6bb7d33a" a;
  Alcotest.(check bool) "some trace events" true (List.length a.events > 100);
  let pool = Slow_path.ring_pool sp in
  Alcotest.(check (list int)) "40 connections set up and torn down"
    [ 40; 40; 0 ]
    [ Slow_path.conn_setups sp; Slow_path.conn_teardowns sp;
      Slow_path.flow_count sp ];
  Alcotest.(check bool) "payload rings recycled" true
    (Ring.Pool.allocated pool < 80
    && Ring.Pool.held pool = Ring.Pool.allocated pool);
  Alcotest.(check int) "every arena slot returned" 0
    (Flow_arena.live (Slow_path.arena sp))

(* The three schedules of the retired arena-vs-boxed experiment (its quick
   mode: six clients, 40 ms, an 8192-event trace ring), run as six
   independent simulations across a 2-domain pool so arena slabs are
   exercised from two domains at once. Each pair of runs must reproduce
   the digest both backings agreed on. *)
let test_schedules_on_two_domains () =
  let chaos = Some (chaos_faults ()) in
  let schedules =
    [
      ("bulk", "6fefedf870788fafd3b12cf4a148257d", 468, 7, None);
      ( "loss", "5ea1543d82f69ff73af496b4a25347b6", 470, 11,
        Some (Fault.uniform_loss 0.02, Fault.uniform_loss 0.02) );
      ("chaos", "935abb6015a17f575b7f64ec4e04c083", 494, 23, chaos);
    ]
  in
  let run (_, _, _, seed, faults) =
    let fault_ab = Option.map fst faults and fault_ba = Option.map snd faults in
    let o =
      observe ?fault_ab ?fault_ba ~trace_capacity:8192 ~conns:6
        ~rounds:16 ~until_ms:40 ~seed ()
    in
    (digest_of o, List.length o.events)
  in
  let units = Array.of_list (List.concat_map (fun s -> [ s; s ]) schedules) in
  let results =
    Tas_parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
        Tas_parallel.Domain_pool.map pool ~f:run units)
  in
  Array.iteri
    (fun i (name, boxed, events, _, _) ->
      Alcotest.(check (pair string int))
        (name ^ ": digest and trace-event count pinned")
        (boxed, events) results.(i))
    units

(* --- Arena properties ----------------------------------------------------- *)

(* Random alloc/free interleavings against a model set: allocated slots are
   distinct, exhaustion yields [None] exactly at capacity, live/available
   and [in_use] track the model. *)
let prop_alloc_free_model =
  QCheck.Test.make ~count:200 ~name:"arena alloc/free matches model"
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (fun (a, k) -> Printf.sprintf "%s%d" (if a then "A" else "F") k)
              ops))
       QCheck.Gen.(list_size (int_bound 60) (pair bool (int_bound 31))))
    (fun ops ->
      let cap = 8 in
      let a = Flow_arena.create ~capacity:cap () in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (is_alloc, k) ->
          if is_alloc then
            match Flow_arena.alloc a with
            | Some s ->
              if Hashtbl.mem live s then
                QCheck.Test.fail_reportf "slot %d aliased" s;
              if s < 0 || s >= cap then
                QCheck.Test.fail_reportf "slot %d out of range" s;
              Hashtbl.replace live s ()
            | None ->
              if Hashtbl.length live <> cap then
                QCheck.Test.fail_reportf "spurious exhaustion at %d live"
                  (Hashtbl.length live)
          else
            let n = Hashtbl.length live in
            if n > 0 then begin
              let slots =
                List.sort compare
                  (Hashtbl.fold (fun s () acc -> s :: acc) live [])
              in
              let s = List.nth slots (k mod n) in
              Flow_arena.free a s;
              Hashtbl.remove live s
            end)
        ops;
      Flow_arena.live a = Hashtbl.length live
      && Flow_arena.available a = cap - Hashtbl.length live
      && List.for_all
           (fun s -> Flow_arena.in_use a s = Hashtbl.mem live s)
           (List.init cap Fun.id))

(* Getter/setter pairs for every field in {!Flow_arena.field_layout} except
   [generation] (no setter; maintained by alloc/free). *)
let accessors :
    (string * (Flow_arena.t -> int -> int) * (Flow_arena.t -> int -> int -> unit))
    list =
  Flow_arena.
    [
      ("opaque", get_opaque, set_opaque);
      ("seq", get_seq, set_seq);
      ("ack", get_ack, set_ack);
      ("tx_sent", get_tx_sent, set_tx_sent);
      ("window", get_window, set_window);
      ("cnt_ackb", get_cnt_ackb, set_cnt_ackb);
      ("cnt_ecnb", get_cnt_ecnb, set_cnt_ecnb);
      ("rtt_est", get_rtt_est, set_rtt_est);
      ("ts_recent", get_ts_recent, set_ts_recent);
      ("tx_span", get_tx_span, set_tx_span);
      ("rx_span", get_rx_span, set_rx_span);
      ("ooo_start", get_ooo_start, set_ooo_start);
      ("ooo_len", get_ooo_len, set_ooo_len);
      ("peer_ip", get_peer_ip, set_peer_ip);
      ("local_port", get_local_port, set_local_port);
      ("peer_port", get_peer_port, set_peer_port);
      ("context", get_context, set_context);
      ("dupack_cnt", get_dupack_cnt, set_dupack_cnt);
      ("cnt_frexmits", get_cnt_frexmits, set_cnt_frexmits);
      ("peer_mac", get_peer_mac, set_peer_mac);
      ("peer_wscale", get_peer_wscale, set_peer_wscale);
      ("flags", get_flags, set_flags);
      ("rx_head", get_rx_head, set_rx_head);
      ("rx_tail", get_rx_tail, set_rx_tail);
      ("tx_head", get_tx_head, set_tx_head);
      ("tx_tail", get_tx_tail, set_tx_tail);
      ("rx_size", get_rx_size, set_rx_size);
      ("tx_size", get_tx_size, set_tx_size);
    ]

let lookup_accessor name =
  List.find_opt (fun (n, _, _) -> n = name) accessors

(* What a write of [v] must read back as, given the field's declared byte
   width: wrap at the width, except the signed span fields which
   sign-extend their 32 bits. *)
let expected_after_write name width v =
  match name with
  | "tx_span" | "rx_span" ->
    let m = v land 0xFFFF_FFFF in
    if m land 0x8000_0000 <> 0 then m - 0x1_0000_0000 else m
  | _ -> if width >= 8 then v else v land ((1 lsl (width * 8)) - 1)

(* The layout table is complete and really is the 102-byte Table-3 record:
   fields sorted by offset, non-overlapping, covering [0, slot_bytes). *)
let test_layout_is_table3 () =
  let l = Flow_arena.field_layout in
  Alcotest.(check int) "102-byte record" 102 Flow_arena.slot_bytes;
  Alcotest.(check int)
    "state_bytes agrees" Flow_arena.slot_bytes Flow_state.state_bytes;
  let covered = ref 0 in
  let last_end = ref 0 in
  List.iter
    (fun (name, off, width) ->
      if off < !last_end then
        Alcotest.failf "field %s at %d overlaps previous (ends %d)" name off
          !last_end;
      if off > !last_end then
        Alcotest.failf "gap before field %s at %d (previous ends %d)" name off
          !last_end;
      last_end := off + width;
      covered := !covered + width;
      if name <> "generation" && Option.is_none (lookup_accessor name) then
        Alcotest.failf "field %s has no accessor pair under test" name)
    l;
  Alcotest.(check int) "fields tile the whole slot" Flow_arena.slot_bytes
    !covered

(* Exhaustive neighbour-isolation check: write a distinct pattern into
   every field of two adjacent slots, then verify every field of both slots
   reads back its own pattern — any offset/width error clobbers a
   neighbour and fails. *)
let test_field_isolation () =
  let a = Flow_arena.create ~capacity:4 () in
  let s0 = Option.get (Flow_arena.alloc a) in
  let s1 = Option.get (Flow_arena.alloc a) in
  let pattern slot i = 0x0101_0101_0101 * (i + 1) + slot in
  let each f =
    List.iteri
      (fun i (name, _, width) ->
        match lookup_accessor name with
        | None -> ()
        | Some (_, get, set) -> f i name width get set)
      Flow_arena.field_layout
  in
  List.iter
    (fun slot -> each (fun i _ _ _ set -> set a slot (pattern slot i)))
    [ s0; s1 ];
  List.iter
    (fun slot ->
      each (fun i name width get _ ->
          Alcotest.(check int)
            (Printf.sprintf "slot %d field %s" slot name)
            (expected_after_write name width (pattern slot i))
            (get a slot)))
    [ s0; s1 ]

(* Random single-field round-trips, weighted toward the 2^31/2^32
   wrap boundary. *)
let prop_field_roundtrip =
  let n_fields = List.length accessors in
  let interesting =
    QCheck.Gen.oneof
      [
        QCheck.Gen.(map abs nat);
        QCheck.Gen.oneofl
          [
            0;
            1;
            0x7FFF_FFFE;
            0x7FFF_FFFF;
            0x8000_0000;
            0xFFFF_FFFE;
            0xFFFF_FFFF;
            0x1_0000_0000;
            0x1_0000_0001;
            0xFFFF;
            0x1_0000;
            max_int;
          ];
      ]
  in
  QCheck.Test.make ~count:500 ~name:"field round-trip at declared width"
    (QCheck.make
       ~print:(fun (f, v) ->
         let name, _, _ = List.nth accessors f in
         Printf.sprintf "%s <- %d" name v)
       QCheck.Gen.(pair (int_bound (n_fields - 1)) interesting))
    (fun (f, v) ->
      let name, get, set = List.nth accessors f in
      let _, _, width =
        List.find (fun (n, _, _) -> n = name) Flow_arena.field_layout
      in
      let a = Flow_arena.create ~capacity:2 () in
      let s0 = Option.get (Flow_arena.alloc a) in
      let s1 = Option.get (Flow_arena.alloc a) in
      set a s1 0;
      set a s0 v;
      get a s0 = expected_after_write name width v && get a s1 = 0)

let test_span_sign_extension () =
  let a = Flow_arena.create ~capacity:1 () in
  let s = Option.get (Flow_arena.alloc a) in
  Flow_arena.set_tx_span a s (-1);
  Alcotest.(check int) "tx_span -1 round-trips" (-1)
    (Flow_arena.get_tx_span a s);
  Flow_arena.set_rx_span a s (-1);
  Alcotest.(check int) "rx_span -1 round-trips" (-1)
    (Flow_arena.get_rx_span a s)

let test_flag_bits_independent () =
  let a = Flow_arena.create ~capacity:1 () in
  let s = Option.get (Flow_arena.alloc a) in
  for bit = 0 to 7 do
    Flow_arena.set_flag a s ~bit true;
    for other = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "bit %d after setting %d" other bit)
        (other = bit)
        (Flow_arena.get_flag a s ~bit:other)
    done;
    Flow_arena.set_flag a s ~bit false
  done;
  Alcotest.(check int) "all clear" 0 (Flow_arena.get_flags a s)

let test_generation_and_reuse () =
  let a = Flow_arena.create ~capacity:1 () in
  let s = Option.get (Flow_arena.alloc a) in
  let g0 = Flow_arena.generation a s in
  Flow_arena.set_seq a s 42;
  Flow_arena.free a s;
  Alcotest.(check int) "generation bumped" (g0 + 1) (Flow_arena.generation a s);
  let s' = Option.get (Flow_arena.alloc a) in
  Alcotest.(check int) "single slot reused" s s';
  Alcotest.(check int) "slot zeroed on realloc" 0 (Flow_arena.get_seq a s');
  Alcotest.(check int)
    "generation survives realloc" (g0 + 1)
    (Flow_arena.generation a s')

let test_free_errors () =
  let a = Flow_arena.create ~capacity:2 () in
  let s = Option.get (Flow_arena.alloc a) in
  Flow_arena.free a s;
  Alcotest.check_raises "double free rejected"
    (Invalid_argument "Flow_arena.free: double free") (fun () ->
      Flow_arena.free a s);
  Alcotest.check_raises "out of range rejected"
    (Invalid_argument "Flow_arena.free: slot out of range") (fun () ->
      Flow_arena.free a 99)

let mk_flow sim ~arena ~pool i =
  let bucket =
    Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  Flow_state.create ~arena ~pool ~opaque:i ~context:0 ~bucket
    ~rx_buf_size:4096 ~tx_buf_size:4096 ~local_port:(5000 + i)
    ~peer_ip:(Addr.host_ip 9) ~peer_port:9000 ~peer_mac:(Addr.host_mac 9)
    ~tx_iss:1000 ~rx_next:2000 ~window:65535 ~peer_wscale:0 ()

(* Exhaustion through the [Flow_state] layer: creation refuses cleanly
   (no heap fallback) and release makes the slot available again. *)
let test_flow_state_exhaustion () =
  let sim = Sim.create () in
  let arena = Flow_arena.create ~capacity:2 () in
  let pool = Ring.Pool.create () in
  let mk = mk_flow sim ~arena ~pool in
  let f1 = mk 1 in
  let _f2 = mk 2 in
  Alcotest.(check (option int)) "in slot 0" (Some 0) (Flow_state.slot f1);
  Alcotest.(check int) "exhausted" 0 (Flow_arena.available arena);
  (try
     ignore (mk 3);
     Alcotest.fail "third create should raise Arena_exhausted"
   with Flow_state.Arena_exhausted -> ());
  Flow_state.release ~sim ~pool f1;
  Alcotest.(check (option int)) "released handle has no slot" None
    (Flow_state.slot f1);
  Alcotest.(check int) "slot returned" 1 (Flow_arena.available arena);
  let f4 = mk 4 in
  Alcotest.(check (option int)) "slot reusable" (Some 0) (Flow_state.slot f4);
  (* The released handle still reads its final state coherently. *)
  Alcotest.(check int) "released handle keeps opaque" 1 (Flow_state.opaque f1);
  Alcotest.(check int) "released handle keeps seq" 1000 (Flow_state.seq f1)

(* A handle that outlives its flow (a socket, a queued context event, a
   pacing or TLP timer) writes only its own private copy: a flow later
   allocated into the same slot never sees those writes, and releasing the
   stale handle again is harmless. *)
let test_stale_handle_isolation () =
  let sim = Sim.create () in
  let arena = Flow_arena.create ~capacity:1 () in
  let pool = Ring.Pool.create () in
  let f1 = mk_flow sim ~arena ~pool 1 in
  Flow_state.set_seq f1 1111;
  Flow_state.release ~sim ~pool f1;
  let f4 = mk_flow sim ~arena ~pool 4 in
  Alcotest.(check (option int)) "f4 reuses f1's slot" (Some 0)
    (Flow_state.slot f4);
  let f4_before = J.to_string (Flow_state.to_json f4) in
  Flow_state.set_seq f1 4242;
  Flow_state.set_fin_sent f1 true;
  Flow_state.set_tx_span f1 77;
  Alcotest.(check string) "f4 untouched by writes through f1" f4_before
    (J.to_string (Flow_state.to_json f4));
  Alcotest.(check int) "f4 tx_span" (-1) (Flow_state.tx_span f4);
  Alcotest.(check (list int)) "f1 reads back its own writes"
    [ 1; 4242; 1; 77 ]
    [ Flow_state.opaque f1; Flow_state.seq f1;
      Bool.to_int (Flow_state.fin_sent f1); Flow_state.tx_span f1 ];
  Flow_state.release ~sim ~pool f1;
  Alcotest.(check (option int)) "second release leaves f4 live" (Some 0)
    (Flow_state.slot f4);
  Alcotest.(check int) "arena still full" 0 (Flow_arena.available arena)

(* Teardown on a warm ring pool allocates only the detached copy: the
   bigarray's custom block for 102 off-heap bytes plus the one-slot arena
   record. The boxed copy-back it replaced allocated a 20-field record and
   its constructor (23 words). *)
let test_release_allocation () =
  let sim = Sim.create () in
  let arena = Flow_arena.create ~capacity:1 () in
  let pool = Ring.Pool.create () in
  Flow_state.release ~sim ~pool (mk_flow sim ~arena ~pool 1);
  let f = mk_flow sim ~arena ~pool 2 in
  let w0 = Gc.minor_words () in
  Flow_state.release ~sim ~pool f;
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check int) "minor words per release" 15 words;
  Alcotest.(check bool) "no more than the boxed record alone (21)" true
    (words <= 21)

(* Random install/remove/lookup/migrate interleavings over a sharded fast
   path with arena-backed flows: table count, arena occupancy, slot
   distinctness and lookup identity must hold after every scale change
   (drain-in-place migration included). *)
let prop_sharded_migration =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun i -> `Install i) (int_bound 23));
          (2, map (fun i -> `Remove i) (int_bound 23));
          (2, map (fun i -> `Lookup i) (int_bound 23));
          (1, map (fun n -> `Scale (1 + (n mod 4))) (int_bound 3));
        ])
  in
  let print_op = function
    | `Install i -> Printf.sprintf "I%d" i
    | `Remove i -> Printf.sprintf "R%d" i
    | `Lookup i -> Printf.sprintf "L%d" i
    | `Scale n -> Printf.sprintf "S%d" n
  in
  QCheck.Test.make ~count:60 ~name:"sharded migrate keeps arena flows intact"
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let net = Topology.point_to_point sim ~queues_per_nic:4 () in
      let nic = net.Topology.a.Topology.nic in
      let cores = Array.init 4 (fun i -> Core.create sim ~id:i ()) in
      let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
      let arena = Flow_arena.create ~capacity:32 () in
      let pool = Ring.Pool.create () in
      let table = Fast_path.flows fp in
      let model : (int, Flow_state.t) Hashtbl.t = Hashtbl.create 32 in
      let tuple i =
        {
          Four_tuple.local_ip = Nic.ip nic;
          local_port = 7;
          peer_ip = Addr.host_ip 50;
          peer_port = 1024 + i;
        }
      in
      let check_invariants () =
        if Flow_table.count table <> Hashtbl.length model then
          QCheck.Test.fail_reportf "table count %d <> model %d"
            (Flow_table.count table) (Hashtbl.length model);
        if Flow_arena.live arena <> Hashtbl.length model then
          QCheck.Test.fail_reportf "arena live %d <> model %d"
            (Flow_arena.live arena) (Hashtbl.length model);
        let slots = Hashtbl.create 32 in
        Hashtbl.iter
          (fun i f ->
            (match Flow_state.slot f with
            | None -> QCheck.Test.fail_reportf "flow %d lost its slot" i
            | Some s ->
              if Hashtbl.mem slots s then
                QCheck.Test.fail_reportf "slot %d aliased" s;
              Hashtbl.replace slots s ());
            let f' = Flow_table.find table (tuple i) in
            if f' == Flow_state.absent then
              QCheck.Test.fail_reportf "flow %d missing from table" i
            else if f' != f then
              QCheck.Test.fail_reportf "lookup %d found wrong flow" i)
          model
      in
      List.iter
        (fun op ->
          (match op with
          | `Install i ->
            if not (Hashtbl.mem model i) then begin
              let bucket =
                Rate_bucket.create sim (Rate_bucket.Rate 10e9)
                  ~burst_bytes:65536
              in
              let f =
                Flow_state.create ~arena ~pool ~opaque:i ~context:0 ~bucket
                  ~rx_buf_size:1024 ~tx_buf_size:1024 ~local_port:7
                  ~peer_ip:(Addr.host_ip 50) ~peer_port:(1024 + i)
                  ~peer_mac:(Addr.host_mac 50) ~tx_iss:0 ~rx_next:0
                  ~window:65535 ~peer_wscale:0 ()
              in
              Fast_path.install_flow fp ~tuple:(tuple i) f;
              Hashtbl.replace model i f
            end
          | `Remove i -> begin
            match Hashtbl.find_opt model i with
            | None -> ()
            | Some f ->
              Fast_path.remove_flow fp ~tuple:(tuple i);
              Flow_state.release ~sim ~pool f;
              Hashtbl.remove model i
          end
          | `Lookup i ->
            let found = Flow_table.find table (tuple i) != Flow_state.absent in
            if found <> Hashtbl.mem model i then
              QCheck.Test.fail_reportf "lookup %d disagrees with model" i
          | `Scale n -> Fast_path.set_active_cores fp n);
          check_invariants ())
        ops;
      true)

(* --- Burst semantics ------------------------------------------------------ *)

(* A standalone fast path with manually installed flows, so bursts can be
   driven through [process_burst] directly and compared against
   single-packet passes on a twin stack. *)
type burst_stack = {
  bsim : Sim.t;
  bnic : Nic.t;
  bfp : Fast_path.t;
  bcore : Core.t;
  barena : Flow_arena.t;
}

let mk_stack () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:1 () in
  let nic = net.Topology.a.Topology.nic in
  (* The far end consumes what the fast path emits. *)
  Nic.set_rx_handler net.Topology.b.Topology.nic (fun ~queue:_ pkt ->
      Packet.release pkt);
  let cores = [| Core.create sim ~id:0 () |] in
  let fp = Fast_path.create sim ~nic ~cores ~config:Config.default in
  { bsim = sim; bnic = nic; bfp = fp; bcore = cores.(0);
    barena = Flow_arena.create ~capacity:8 () }

let install_flow st ~opaque ~local_port ~rx_next ~tx_iss =
  let bucket =
    Rate_bucket.create st.bsim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  let flow =
    Flow_state.create ~arena:st.barena ~pool:(Ring.Pool.create ()) ~opaque
      ~context:0
      ~bucket ~rx_buf_size:65536
      ~tx_buf_size:65536 ~local_port ~peer_ip:(Addr.host_ip 99)
      ~peer_port:9000 ~peer_mac:(Addr.host_mac 99) ~tx_iss ~rx_next
      ~window:65535 ~peer_wscale:0 ()
  in
  let tuple =
    {
      Four_tuple.local_ip = Nic.ip st.bnic;
      local_port;
      peer_ip = Addr.host_ip 99;
      peer_port = 9000;
    }
  in
  Fast_path.install_flow st.bfp ~tuple flow;
  flow

let mk_pkt st ~dst_port ~seq ~ack ~flags ~payload =
  Packet.make ~src_mac:(Addr.host_mac 99) ~dst_mac:(Nic.mac st.bnic)
    ~src_ip:(Addr.host_ip 99) ~dst_ip:(Nic.ip st.bnic)
    ~tcp:
      (Tcp.make ~ts:(1, 1) ~src_port:9000 ~dst_port ~seq ~ack ~flags
         ~window:65535 ())
    ~payload ()

(* Everything single-vs-burst equivalence must agree on, excluding the
   burst-shape counters themselves (rx_bursts/rx_burst_packets are the one
   legitimate difference). *)
let burst_digest st flows =
  let s = Fast_path.stats st.bfp in
  Printf.sprintf
    "rxd=%d rxa=%d txd=%d acks=%d ooo=%d drops=%d frex=%d exc=%d mal=%d \
     nic_tx=%d | %s"
    s.Fast_path.rx_data_packets s.Fast_path.rx_ack_packets
    s.Fast_path.tx_data_packets s.Fast_path.acks_sent s.Fast_path.ooo_stored
    s.Fast_path.payload_drops s.Fast_path.fast_retransmits
    s.Fast_path.exceptions_forwarded s.Fast_path.malformed_drops
    (Nic.tx_packets st.bnic)
    (String.concat ","
       (List.map (fun f -> J.to_string (Flow_state.to_json f)) flows))

(* The shared scenario: two interleaved flows with in-order data, an
   out-of-order segment and its gap-filler, a stale duplicate, and a
   dup-ACK run that must trigger exactly one fast retransmit. [packets]
   rebuilds the identical arrival sequence on any stack. *)
let scenario_packets st =
  let seg port base i = mk_pkt st ~dst_port:port ~seq:(base + (i * 500)) ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 500 (Char.chr (65 + i)))
  in
  (* Four distinct packets: [process] releases each one it is given. *)
  let pure_ack () = mk_pkt st ~dst_port:5001 ~seq:3000 ~ack:1000
      ~flags:Tcp.ack_flags ~payload:Bytes.empty
  in
  [|
    seg 5001 100_000 0;
    seg 5002 200_000 0;
    seg 5001 100_000 1;
    seg 5002 200_000 1;
    seg 5001 100_000 0 (* stale duplicate *);
    seg 5001 100_000 3 (* out of order: skips segment 2 *);
    seg 5001 100_000 2 (* fills the gap *);
    seg 5002 200_000 2;
    pure_ack ();
    pure_ack ();
    pure_ack ();
    pure_ack () (* 3 duplicate ACKs -> one fast retransmit *);
  |]

(* Builds the stack, preloads flow A's transmit buffer (so the dup-ACK run
   has sent-but-unacked bytes to retransmit), then lets [drive] feed the
   scenario packets. *)
let run_scenario drive =
  let st = mk_stack () in
  let a = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let b = install_flow st ~opaque:2 ~local_port:5002 ~rx_next:200_000
      ~tx_iss:2000
  in
  ignore
    (Ring.push (Flow_state.tx_buf a) (Bytes.make 2000 'T') ~off:0 ~len:2000);
  Fast_path.notify_tx st.bfp a;
  Sim.run st.bsim;
  drive st (scenario_packets st);
  Sim.run st.bsim;
  (burst_digest st [ a; b ], st, a, b)

let one_burst st pkts =
  Fast_path.process_burst st.bfp pkts ~count:(Array.length pkts) st.bcore

let singles st pkts =
  Array.iter
    (fun p -> Fast_path.process_burst st.bfp [| p |] ~count:1 st.bcore)
    pkts

let test_burst_equals_singles () =
  let d_burst, st_burst, _, _ = run_scenario one_burst in
  let d_single, st_single, _, _ = run_scenario singles in
  Alcotest.(check string) "burst == N singles" d_single d_burst;
  (* The scenario really exercised the interesting paths. *)
  let s = Fast_path.stats st_burst.bfp in
  Alcotest.(check int) "one ooo store" 1 s.Fast_path.ooo_stored;
  Alcotest.(check int) "one fast retransmit" 1 s.Fast_path.fast_retransmits;
  Alcotest.(check bool) "acks generated" true (s.Fast_path.acks_sent >= 8);
  (* And the burst run took a single vector pass where the singles run
     took one per packet. *)
  Alcotest.(check int) "one vector pass" 1 s.Fast_path.rx_bursts;
  Alcotest.(check int) "singles: one pass per packet"
    (Array.length (scenario_packets st_single))
    (Fast_path.stats st_single.bfp).Fast_path.rx_bursts

(* Per-flow payload ordering under an interleaved burst: each flow's
   receive ring must hold its own segments in send order. *)
let test_burst_interleave_ordering () =
  let st = mk_stack () in
  let a = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let b = install_flow st ~opaque:2 ~local_port:5002 ~rx_next:200_000
      ~tx_iss:2000
  in
  let seg port base i = mk_pkt st ~dst_port:port ~seq:(base + (i * 4)) ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 4 (Char.chr (97 + i)))
  in
  let pkts =
    Array.init 12 (fun k ->
        if k mod 2 = 0 then seg 5001 100_000 (k / 2)
        else seg 5002 200_000 (k / 2))
  in
  Fast_path.process_burst st.bfp pkts ~count:12 st.bcore;
  Sim.run st.bsim;
  let drain flow =
    let ring = Flow_state.rx_buf flow in
    let n = Ring.used ring in
    let buf = Bytes.create n in
    ignore (Ring.pop ring ~dst:buf ~dst_off:0 ~len:n);
    Bytes.to_string buf
  in
  Alcotest.(check string) "flow A in order" "aaaabbbbccccddddeeeeffff"
    (drain a);
  Alcotest.(check string) "flow B in order" "aaaabbbbccccddddeeeeffff"
    (drain b)

let test_burst_empty_and_oversized () =
  let st = mk_stack () in
  let _ = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let before = burst_digest st [] in
  Fast_path.process_burst st.bfp [||] ~count:0 st.bcore;
  Alcotest.(check string) "empty burst is a no-op" before (burst_digest st []);
  Alcotest.(check int) "no vector pass counted" 0
    (Fast_path.stats st.bfp).Fast_path.rx_bursts;
  let pkt = mk_pkt st ~dst_port:5001 ~seq:100_000 ~ack:1000
      ~flags:Tcp.data_flags ~payload:(Bytes.make 4 'x')
  in
  Alcotest.check_raises "oversized count rejected"
    (Invalid_argument "Fast_path.process_burst: count out of range") (fun () ->
      Fast_path.process_burst st.bfp [| pkt |] ~count:2 st.bcore);
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Fast_path.process_burst: count out of range") (fun () ->
      Fast_path.process_burst st.bfp [| pkt |] ~count:(-1) st.bcore)

(* A warm 32-packet burst of stale segments (entirely below [rx_next]):
   every packet takes the duplicate path and answers with an ACK, so the
   same burst replays with the same work each time. The memoized flow
   lookup, the verdicts, the ACK builds and the port drain allocate
   nothing. *)
let test_burst_allocation () =
  let st = mk_stack () in
  let _ = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  let pkts =
    Array.init 32 (fun _ ->
        mk_pkt st ~dst_port:5001 ~seq:1000 ~ack:1000 ~flags:Tcp.data_flags
          ~payload:(Bytes.create 1448))
  in
  (* [process_burst] releases every packet it is given: take one
     reference per replay. *)
  let replay () =
    Array.iter Packet.retain pkts;
    one_burst st pkts;
    Sim.run st.bsim
  in
  for _ = 1 to 100 do
    replay ()
  done;
  let acks () = (Fast_path.stats st.bfp).Fast_path.acks_sent in
  let a0 = acks () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 2_000 do
    replay ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "one ACK per stale segment" (2_000 * 32) (acks () - a0);
  Alcotest.(check (float 0.)) "0 words per packet" 0. words

(* --- JSON shape regression ------------------------------------------------ *)

let obj_keys = function
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "expected a JSON object"

let test_flows_json_shape () =
  let st = mk_stack () in
  let flow = install_flow st ~opaque:1 ~local_port:5001 ~rx_next:100_000
      ~tx_iss:1000
  in
  Alcotest.(check (list string))
    "Flow_state.to_json key order pinned"
    [
      "opaque"; "context"; "peer"; "local_port"; "seq"; "ack"; "snd_una";
      "tx_sent"; "tx_avail"; "tx_buf_used"; "tx_buf_free"; "rx_buf_used";
      "rx_buf_free"; "window"; "dupack_cnt"; "in_recovery"; "bucket"; "ooo";
      "cnt_ackb"; "cnt_ecnb"; "cnt_frexmits"; "rtt_est_ns"; "fin_received";
      "fin_sent";
    ]
    (obj_keys (Flow_state.to_json flow));
  (* Full-stack snapshot: top-level shape of `Tas.flows`. *)
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:2 () in
  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
  in
  Alcotest.(check (list string))
    "Tas.flows top-level keys pinned"
    [ "now_ns"; "recovery_policy"; "count"; "shards"; "flows"; "lifecycle" ]
    (obj_keys (Tas.flows tas))

let suite =
  [
    Alcotest.test_case "bulk: arena == boxed" `Quick test_bulk_differential;
    Alcotest.test_case "bulk + loss: arena == boxed" `Quick
      test_bulk_differential_with_loss;
    Alcotest.test_case "chaos schedule: arena == boxed" `Quick
      test_chaos_differential;
    Alcotest.test_case "sharded scale-down: arena == boxed" `Quick
      test_sharded_scale_down_differential;
    QCheck_alcotest.to_alcotest prop_alloc_free_model;
    Alcotest.test_case "layout tiles the 102-byte record" `Quick
      test_layout_is_table3;
    Alcotest.test_case "adjacent-slot field isolation" `Quick
      test_field_isolation;
    QCheck_alcotest.to_alcotest prop_field_roundtrip;
    Alcotest.test_case "span fields sign-extend" `Quick
      test_span_sign_extension;
    Alcotest.test_case "flag bits independent" `Quick
      test_flag_bits_independent;
    Alcotest.test_case "generation bump and slot reuse" `Quick
      test_generation_and_reuse;
    Alcotest.test_case "double free / out of range rejected" `Quick
      test_free_errors;
    Alcotest.test_case "exhaustion refuses cleanly via Flow_state" `Quick
      test_flow_state_exhaustion;
    QCheck_alcotest.to_alcotest prop_sharded_migration;
    Alcotest.test_case "burst == N singles (arena)" `Quick
      test_burst_equals_singles;
    Alcotest.test_case "interleaved burst preserves per-flow order" `Quick
      test_burst_interleave_ordering;
    Alcotest.test_case "empty and oversized bursts" `Quick
      test_burst_empty_and_oversized;
    Alcotest.test_case "flows JSON shape pinned" `Quick test_flows_json_shape;
    Alcotest.test_case "connect/close churn: arena == boxed" `Quick
      test_churn_differential;
    Alcotest.test_case "schedules on 2 domains: arena == boxed" `Quick
      test_schedules_on_two_domains;
    Alcotest.test_case "stale handle writes stay private" `Quick
      test_stale_handle_isolation;
    Alcotest.test_case "release allocates less than boxed copy-back" `Quick
      test_release_allocation;
    Alcotest.test_case "warm stale burst allocates nothing" `Quick
      test_burst_allocation;
  ]
