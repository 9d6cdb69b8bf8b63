(* Shard subsystem: RSS redirection-table rewrites, per-queue flow-table
   shards with drain-in-place migration, the accounting-only spinlock cost
   model, the sharded-vs-single-table determinism contract, and the
   cross-domain telemetry merges ([Metrics.merge] / [Trace.merge]) plus the
   parallel consumer built on them (chaos -jN). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Addr = Tas_proto.Addr
module Four_tuple = Addr.Four_tuple
module Spinlock = Tas_shard.Spinlock
module Rss_table = Tas_shard.Rss_table
module Flow_shards = Tas_shard.Flow_shards
module Flow_table = Tas_core.Flow_table
module Fast_path = Tas_core.Fast_path
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Topology = Tas_netsim.Topology
module Rpc_echo = Tas_apps.Rpc_echo
module Scenario = Tas_experiments.Scenario
module Metrics = Tas_telemetry.Metrics
module Trace = Tas_telemetry.Trace
module J = Tas_telemetry.Json

let tuple i =
  {
    Four_tuple.local_ip = 0x0a000001;
    local_port = 7;
    peer_ip = 0x0a000100 + (i lsr 12);
    peer_port = 1024 + (i land 0xfff);
  }

(* --- Spinlock -------------------------------------------------------------- *)

let test_spinlock_accounting () =
  let l = Spinlock.create () in
  Alcotest.(check int) "local charge" 24 (Spinlock.acquire l ~remote:false);
  Alcotest.(check int) "remote charge" 96 (Spinlock.acquire l ~remote:true);
  Alcotest.(check int) "acquisitions" 2 (Spinlock.acquisitions l);
  Alcotest.(check int) "remote acquisitions" 1 (Spinlock.remote_acquisitions l);
  Alcotest.(check int) "total cycles" 120 (Spinlock.cycles l);
  Alcotest.(check int) "remote cycles" 96 (Spinlock.remote_cycles l)

(* --- Rss_table ------------------------------------------------------------- *)

let test_rss_initial_spread () =
  let t = Rss_table.create ~num_queues:4 () in
  Alcotest.(check int) "size" 128 (Rss_table.size t);
  Alcotest.(check int) "all queues active" 4 (Rss_table.active t);
  for g = 0 to Rss_table.size t - 1 do
    Alcotest.(check int)
      (Printf.sprintf "group %d" g)
      (g mod 4)
      (Rss_table.queue_of_group t g)
  done;
  (* hash reduction is non-negative even for negative hashes *)
  Alcotest.(check bool) "negative hash ok" true
    (Rss_table.group_of_hash t (-7) >= 0)

let test_rss_rewrite_moves_groups_in_order () =
  let t = Rss_table.create ~num_queues:4 () in
  let moves = ref [] in
  Rss_table.set_on_move t (fun ~group ~from_q ~to_q ->
      (* the entry is already rewritten when the hook runs *)
      Alcotest.(check int) "entry updated first" to_q
        (Rss_table.queue_of_group t group);
      moves := (group, from_q, to_q) :: !moves);
  Rss_table.set_active t 2;
  let moves = List.rev !moves in
  Alcotest.(check int) "active" 2 (Rss_table.active t);
  (* groups 0,1 keep their queue under mod 2; every remapped group fires *)
  List.iter
    (fun (g, from_q, to_q) ->
      Alcotest.(check int) "old queue" (g mod 4) from_q;
      Alcotest.(check int) "new queue" (g mod 2) to_q;
      Alcotest.(check bool) "actually moved" true (from_q <> to_q))
    moves;
  Alcotest.(check (list int)) "ascending group order"
    (List.sort compare (List.map (fun (g, _, _) -> g) moves))
    (List.map (fun (g, _, _) -> g) moves);
  Alcotest.(check int) "counter" (List.length moves) (Rss_table.groups_moved t);
  Alcotest.(check int) "rewrites" 1 (Rss_table.rewrites t);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Rss_table.set_active: out of range") (fun () ->
      Rss_table.set_active t 5)

(* --- Flow_shards ----------------------------------------------------------- *)

let test_shards_route_and_sum () =
  let rss = Rss_table.create ~num_queues:4 () in
  let s : int Flow_shards.t = Flow_shards.create ~rss ~absent:(-1) () in
  let n = 64 in
  for i = 0 to n - 1 do
    Flow_shards.add s (tuple i) i
  done;
  Alcotest.(check int) "count" n (Flow_shards.count s);
  let sum = ref 0 in
  for q = 0 to Flow_shards.num_shards s - 1 do
    sum := !sum + Flow_shards.shard_count s q
  done;
  Alcotest.(check int) "shard counts sum to count" n !sum;
  for i = 0 to n - 1 do
    Alcotest.(check int) "payload" i (Flow_shards.find s (tuple i));
    (* each flow sits on the shard the redirection table names *)
    let q = Flow_shards.shard_of s (tuple i) in
    let on_shard = ref false in
    Flow_shards.iter_shard s q (fun t _ ->
        if Four_tuple.equal t (tuple i) then on_shard := true);
    Alcotest.(check bool) "on its RSS shard" true !on_shard
  done;
  (* find charges local, add charges remote *)
  Alcotest.(check int) "remote lock cycles" (n * 96)
    (Flow_shards.remote_lock_cycles s);
  Alcotest.(check int) "local lock cycles" (n * 24)
    (Flow_shards.lock_cycles s - Flow_shards.remote_lock_cycles s);
  Flow_shards.remove s (tuple 0);
  Alcotest.(check int) "removed" (n - 1) (Flow_shards.count s);
  Alcotest.(check int) "gone" (-1) (Flow_shards.find s (tuple 0))

let test_shards_migration_conserves_flows () =
  let rss = Rss_table.create ~num_queues:4 () in
  let s : int Flow_shards.t = Flow_shards.create ~rss ~absent:(-1) () in
  let n = 96 in
  for i = 0 to n - 1 do
    Flow_shards.add s (tuple i) i
  done;
  let spread q = Flow_shards.shard_count s q in
  Alcotest.(check bool) "initially spread past queue 0" true
    (spread 1 + spread 2 + spread 3 > 0);
  let hook_moved = ref 0 in
  Flow_shards.set_on_migrate s (fun ~group:_ ~from_q:_ ~to_q ~moved ->
      Alcotest.(check int) "scale-down target" 0 to_q;
      hook_moved := !hook_moved + moved);
  Rss_table.set_active rss 1;
  Alcotest.(check int) "no flow dropped" n (Flow_shards.count s);
  Alcotest.(check int) "all on shard 0" n (spread 0);
  Alcotest.(check int) "hook saw every move" !hook_moved
    (Flow_shards.migrated_flows s);
  for i = 0 to n - 1 do
    Alcotest.(check int) "payload survives" i (Flow_shards.find s (tuple i))
  done;
  (* per-shard migration counters balance *)
  let inn = ref 0 and out = ref 0 in
  for q = 0 to 3 do
    let st = Flow_shards.shard_stats s q in
    inn := !inn + st.Flow_shards.migrations_in;
    out := !out + st.Flow_shards.migrations_out
  done;
  Alcotest.(check int) "in = out" !out !inn;
  Alcotest.(check int) "in = migrated" (Flow_shards.migrated_flows s) !inn;
  (* scale back up: flows respread, still none lost *)
  Flow_shards.set_on_migrate s (fun ~group:_ ~from_q:_ ~to_q:_ ~moved:_ -> ());
  Rss_table.set_active rss 4;
  Alcotest.(check int) "respread keeps all" n (Flow_shards.count s);
  Alcotest.(check int) "spread again" (spread 0 + spread 1 + spread 2 + spread 3)
    n

(* [find], the fast path's per-packet lookup (hash the tuple, route it
   through the redirection table, probe the owning shard), over 4096 flows
   in 8 shards. The stride, coprime with the table size, touches every
   flow the way independent arrivals do. *)
let test_shards_find_allocation () =
  let rss = Rss_table.create ~num_queues:8 () in
  let s : int Flow_shards.t = Flow_shards.create ~rss ~absent:(-1) () in
  let n = 4096 in
  let tuples = Array.init n tuple in
  Array.iteri (fun i t -> Flow_shards.add s t i) tuples;
  let misses = ref 0 in
  let lookups k =
    let j = ref 0 in
    for _ = 1 to k do
      if Flow_shards.find s tuples.(!j) < 0 then incr misses;
      j := (!j + 2049) land (n - 1)
    done
  in
  lookups n;
  let w0 = Gc.minor_words () in
  lookups 200_000;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every lookup hits" 0 !misses;
  Alcotest.(check (float 0.)) "0 words per lookup" 0. words

let test_shard_metrics_registered () =
  let rss = Rss_table.create ~num_queues:2 () in
  let s : int Flow_shards.t = Flow_shards.create ~rss ~absent:(-1) () in
  Flow_shards.add s (tuple 0) 0;
  let m = Metrics.create () in
  Flow_shards.register s m ();
  Rss_table.register rss m ();
  let names =
    List.map (fun smp -> smp.Metrics.s_name) (Metrics.snapshot m)
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) n true (List.mem n names))
    [
      "fp_shard_flows"; "fp_shard_lookups"; "fp_shard_installs";
      "fp_shard_removes"; "fp_shard_migrations_in";
      "fp_shard_migrations_out"; "fp_shard_lock_cycles"; "nic_rss_rewrites";
      "nic_rss_groups_moved";
    ]

(* --- Sharded vs single-table determinism ----------------------------------- *)

(* A small saturated RPC-echo server; returns the non-timing operational
   counters plus the sorted flow dump. *)
let workload_digest ~active_cores () =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:4 () in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:6 ~split:(2, 4)
      ()
  in
  let tas = Option.get server.Scenario.tas in
  Fast_path.set_active_cores (Tas.fast_path tas) active_cores;
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size:64
    ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  let transport = Scenario.client_transport sim net.Topology.clients.(0) () in
  Rpc_echo.closed_loop_clients sim transport ~n:16 ~dst_ip:server.Scenario.ip
    ~dst_port:7 ~msg_size:64 ~pipeline:4 ~stagger_ns:2_000 ~stats ();
  Sim.run ~until:(Time_ns.ms 8) sim;
  let s = Tas.snapshot tas in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  ( Printf.sprintf "%d|%d|%d|%d|%d|%d|%d|%d|%d" s.Tas.flows s.Tas.conn_setups
      s.Tas.rx_data_packets s.Tas.rx_ack_packets s.Tas.tx_data_packets
      s.Tas.acks_sent s.Tas.ooo_stored s.Tas.exceptions_forwarded
      (Stats.Counter.value stats.Rpc_echo.completed),
    J.to_string (Flow_table.dump ft),
    tas )

(* The sharded table must behave exactly like one shared table: the lock
   model is accounting-only and RSS steering is identical either way. The
   single-table mode is gone; the counters and the md5 of counters + dump
   below are what both modes produced, byte for byte, when both existed. *)
let single_table_counters = "16|16|37179|12206|12225|37179|0|96|37140"
let single_table_digest = "770c070032543daece99fcfed17b0cf8"

let test_sharded_equals_single_table () =
  let d1, dump1, tas1 = workload_digest ~active_cores:4 () in
  let ft1 = Fast_path.flows (Tas.fast_path tas1) in
  Alcotest.(check string) "operational counters identical"
    single_table_counters d1;
  Alcotest.(check string) "counters + flow dump digest identical"
    single_table_digest
    (Digest.to_hex (Digest.string (d1 ^ dump1)));
  Alcotest.(check int) "sharded table really sharded" 4
    (Flow_table.num_shards ft1);
  (* per-shard occupancy sums to the table count *)
  let sum = ref 0 in
  for q = 0 to Flow_table.num_shards ft1 - 1 do
    sum := !sum + Flow_table.shard_count ft1 q
  done;
  Alcotest.(check int) "shard occupancy sums" (Flow_table.count ft1) !sum

(* Scale a live, populated fast path down to one core: every established
   flow must land on shard 0 exactly once, and the id-sorted dump must not
   change at all. *)
let test_live_scale_down_migrates () =
  let _, dump_before, tas = workload_digest ~active_cores:4 () in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  let before = Flow_table.count ft in
  Alcotest.(check bool) "has flows" true (before > 0);
  Fast_path.set_active_cores (Tas.fast_path tas) 1;
  Alcotest.(check int) "no flow dropped or duplicated" before
    (Flow_table.count ft);
  Alcotest.(check int) "all on shard 0" before (Flow_table.shard_count ft 0);
  Alcotest.(check bool) "flows actually moved" true
    (Flow_table.migrated_flows ft > 0);
  Alcotest.(check string) "dump unchanged" dump_before
    (J.to_string (Flow_table.dump ft))

(* --- Metrics.merge --------------------------------------------------------- *)

let test_metrics_merge () =
  let mk v g =
    let m = Metrics.create () in
    let c = Metrics.counter m "reqs" in
    Stats.Counter.add c v;
    Metrics.gauge_fn m "depth" (fun () -> g);
    let h = Metrics.hist m "lat" in
    Stats.Hist.add h (float_of_int (10 * v));
    Metrics.snapshot m
  in
  let merged = Metrics.merge [ mk 3 1.5; mk 5 2.5 ] in
  let find name =
    List.find (fun s -> s.Metrics.s_name = name) merged
  in
  (match (find "reqs").Metrics.s_value with
  | Metrics.Counter n -> Alcotest.(check int) "counters sum" 8 n
  | _ -> Alcotest.fail "reqs not a counter");
  (match (find "depth").Metrics.s_value with
  | Metrics.Gauge g -> Alcotest.(check (float 1e-9)) "gauges sum" 4.0 g
  | _ -> Alcotest.fail "depth not a gauge");
  (match (find "lat").Metrics.s_value with
  | Metrics.Hist h ->
    Alcotest.(check int) "hist counts sum" 2 h.Metrics.count;
    Alcotest.(check bool) "max of max" true (h.Metrics.max_v >= 49.0)
  | _ -> Alcotest.fail "lat not a hist");
  (* sorted output, like snapshot *)
  let names = List.map (fun s -> s.Metrics.s_name) merged in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  (* mismatched types refuse to merge *)
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.counter a "x");
  Metrics.gauge_fn b "x" (fun () -> 1.0);
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Metrics.merge: mismatched sample types") (fun () ->
      ignore (Metrics.merge [ Metrics.snapshot a; Metrics.snapshot b ]))

let test_trace_merge_stable () =
  let ev ts flow = { Trace.ts; kind = Trace.Rx_data; core = 0; flow } in
  let s1 = [ ev 10 1; ev 20 2; ev 30 3 ] in
  let s2 = [ ev 10 4; ev 25 5 ] in
  let merged = Trace.merge [ s1; s2 ] in
  Alcotest.(check (list int)) "stable ts order (stream 1 wins ties)"
    [ 1; 4; 2; 5; 3 ]
    (List.map (fun e -> e.Trace.flow) merged);
  Alcotest.(check (list int)) "sorted by ts" [ 10; 10; 20; 25; 30 ]
    (List.map (fun e -> e.Trace.ts) merged)

(* --- Parallel consumers ---------------------------------------------------- *)

module Exp_chaos = Tas_experiments.Exp_chaos

let test_chaos_parallel_matches_serial () =
  let capture jobs =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    Test_parallel.with_run_pool ~jobs (fun () ->
        Exp_chaos.run ~quick:true ~only:[ "bursty-loss"; "dup-reorder" ] fmt);
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let serial = capture 1 in
  let parallel = capture 2 in
  Alcotest.(check bool) "produced output" true (String.length serial > 0);
  Alcotest.(check string) "ch -j2 identical to serial" serial parallel

let suite =
  [
    Alcotest.test_case "spinlock: accounting-only cost model" `Quick
      test_spinlock_accounting;
    Alcotest.test_case "rss: initial mod-n spread" `Quick
      test_rss_initial_spread;
    Alcotest.test_case "rss: rewrite fires on_move in group order" `Quick
      test_rss_rewrite_moves_groups_in_order;
    Alcotest.test_case "shards: route, sum, lock charges" `Quick
      test_shards_route_and_sum;
    Alcotest.test_case "shards: scale-down migration conserves flows" `Quick
      test_shards_migration_conserves_flows;
    Alcotest.test_case "shards: warm lookup allocates nothing" `Quick
      test_shards_find_allocation;
    Alcotest.test_case "shards: per-shard metrics registered" `Quick
      test_shard_metrics_registered;
    Alcotest.test_case "fast path: sharded == single-table" `Quick
      test_sharded_equals_single_table;
    Alcotest.test_case "fast path: live scale-down migrates in place" `Quick
      test_live_scale_down_migrates;
    Alcotest.test_case "metrics: merge counters/gauges/hists" `Quick
      test_metrics_merge;
    Alcotest.test_case "trace: merge is a stable ts sort" `Quick
      test_trace_merge_stable;
    Alcotest.test_case "chaos: -j2 output identical to serial" `Quick
      test_chaos_parallel_matches_serial;
  ]
