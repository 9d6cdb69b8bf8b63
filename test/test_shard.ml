(* RSS redirection-table rewrites, the flow table's per-queue accounting
   (occupancy, migrations and the accounting-only lock model, all kept as
   counters), the sharded-vs-single-table determinism contract, and the
   cross-domain telemetry merges ([Metrics.merge] / [Trace.merge]) plus the
   parallel consumer built on them (chaos -jN). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Addr = Tas_proto.Addr
module Four_tuple = Addr.Four_tuple
module Rss_table = Tas_netsim.Rss_table
module Flow_table = Tas_core.Flow_table
module Flow_state = Tas_core.Flow_state
module Flow_arena = Tas_core.Flow_arena
module Rate_bucket = Tas_core.Rate_bucket
module Ring = Tas_buffers.Ring_buffer
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

(* --- Flow_table -------------------------------------------------------------- *)

(* [n] flow records; tuple [i]'s flow carries opaque id [i]. *)
let make_flows n =
  let sim = Sim.create () in
  let arena = Flow_arena.create ~capacity:n () in
  let pool = Ring.Pool.create () in
  let bucket =
    Rate_bucket.create sim (Rate_bucket.Rate 10e9) ~burst_bytes:65536
  in
  Array.init n (fun i ->
      Flow_state.create ~arena ~pool ~opaque:i ~context:0 ~bucket
        ~rx_buf_size:1024 ~tx_buf_size:1024 ~local_port:7
        ~peer_ip:(Addr.host_ip 50) ~peer_port:(1024 + i)
        ~peer_mac:(Addr.host_mac 50) ~tx_iss:0 ~rx_next:0 ~window:65535
        ~peer_wscale:0 ())

(* A table over a fresh redirection table, its migration hook wired the
   way [Fast_path.create] wires the NIC's. *)
let table ~queues =
  let rss = Rss_table.create ~num_queues:queues () in
  let ft = Flow_table.create ~rss in
  Rss_table.set_on_move rss (fun ~group ~from_q ~to_q ->
      ignore (Flow_table.move_group ft ~group ~from_q ~to_q));
  (rss, ft)

let group_of rss i = Rss_table.group_of_hash rss (Four_tuple.sym_hash (tuple i))
let payload ft i = Flow_state.opaque (Flow_table.find ft (tuple i))

(* The lock model is accounting only: one install charges a remote
   acquisition (96 cycles), one lookup a local one (24 cycles). *)
let test_spinlock_accounting () =
  let flows = make_flows 1 in
  let rss, ft = table ~queues:4 in
  let q = Rss_table.queue_of_group rss (group_of rss 0) in
  Flow_table.add ft (tuple 0) flows.(0);
  Alcotest.(check int) "remote charge" 96 (Flow_table.lock_cycles ft);
  ignore (Flow_table.find ft (tuple 0));
  Alcotest.(check int) "local charge" 24
    (Flow_table.lock_cycles ft - Flow_table.remote_lock_cycles ft);
  let st = Flow_table.shard_stats ft q in
  Alcotest.(check int) "acquisitions" 2 (st.Flow_table.lookups + st.installs);
  Alcotest.(check int) "remote acquisitions" 1 st.installs;
  Alcotest.(check int) "total cycles" 120 (Flow_table.lock_cycles ft);
  Alcotest.(check int) "remote cycles" 96 (Flow_table.remote_lock_cycles ft);
  Alcotest.(check int) "owning queue's cycles" 120 st.lock_cycles;
  Alcotest.(check int) "owning queue's remote cycles" 96
    st.remote_lock_cycles

let test_shards_route_and_sum () =
  let n = 64 in
  let flows = make_flows n in
  let rss, ft = table ~queues:4 in
  for i = 0 to n - 1 do
    Flow_table.add ft (tuple i) flows.(i)
  done;
  Alcotest.(check int) "count" n (Flow_table.count ft);
  let sum = ref 0 in
  for q = 0 to Flow_table.num_shards ft - 1 do
    sum := !sum + Flow_table.shard_count ft q
  done;
  Alcotest.(check int) "shard counts sum to count" n !sum;
  for i = 0 to n - 1 do
    Alcotest.(check int) "payload" i (payload ft i)
  done;
  (* each queue holds exactly the flows the redirection table steers to it *)
  for q = 0 to 3 do
    let steered = ref 0 in
    for i = 0 to n - 1 do
      if Rss_table.queue_of_group rss (group_of rss i) = q then incr steered
    done;
    Alcotest.(check int) (Printf.sprintf "queue %d" q) !steered
      (Flow_table.shard_count ft q)
  done;
  (* find charges local, add charges remote *)
  Alcotest.(check int) "remote lock cycles" (n * 96)
    (Flow_table.remote_lock_cycles ft);
  Alcotest.(check int) "local lock cycles" (n * 24)
    (Flow_table.lock_cycles ft - Flow_table.remote_lock_cycles ft);
  let per_queue = ref 0 in
  for q = 0 to 3 do
    per_queue := !per_queue + (Flow_table.shard_stats ft q).Flow_table.lock_cycles
  done;
  Alcotest.(check int) "per-queue cycles sum" (Flow_table.lock_cycles ft)
    !per_queue;
  Flow_table.remove ft (tuple 0);
  Alcotest.(check int) "removed" (n - 1) (Flow_table.count ft);
  Alcotest.(check bool) "gone" true
    (Flow_table.find ft (tuple 0) == Flow_state.absent);
  (* an absent remove and a re-add each still charge a remote acquisition
     and leave the occupancy alone *)
  Flow_table.remove ft (tuple 0);
  Flow_table.add ft (tuple 1) flows.(1);
  Alcotest.(check int) "count unchanged" (n - 1) (Flow_table.count ft);
  Alcotest.(check int) "charged" ((n + 3) * 96)
    (Flow_table.remote_lock_cycles ft);
  sum := 0;
  for q = 0 to 3 do
    sum := !sum + Flow_table.shard_count ft q
  done;
  Alcotest.(check int) "occupancy unchanged" (n - 1) !sum

let test_shards_migration_conserves_flows () =
  let n = 96 in
  let flows = make_flows n in
  let rss, ft = table ~queues:4 in
  for i = 0 to n - 1 do
    Flow_table.add ft (tuple i) flows.(i)
  done;
  let spread q = Flow_table.shard_count ft q in
  Alcotest.(check bool) "initially spread past queue 0" true
    (spread 1 + spread 2 + spread 3 > 0);
  let occupied = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let g = group_of rss i in
    if g mod 4 <> 0 then Hashtbl.replace occupied g ()
  done;
  let hook_moved = ref 0 in
  Rss_table.set_on_move rss (fun ~group ~from_q ~to_q ->
      Alcotest.(check int) "scale-down target" 0 to_q;
      hook_moved :=
        !hook_moved + Flow_table.move_group ft ~group ~from_q ~to_q);
  Rss_table.set_active rss 1;
  Alcotest.(check int) "no flow dropped" n (Flow_table.count ft);
  Alcotest.(check int) "all on shard 0" n (spread 0);
  Alcotest.(check int) "hook saw every move" !hook_moved
    (Flow_table.migrated_flows ft);
  for i = 0 to n - 1 do
    Alcotest.(check int) "payload survives" i (payload ft i)
  done;
  (* each remapped group with flows charges both of its queues *)
  Alcotest.(check int) "migration lock charges"
    ((n + (2 * Hashtbl.length occupied)) * 96)
    (Flow_table.remote_lock_cycles ft);
  (* per-shard migration counters balance *)
  let inn = ref 0 and out = ref 0 in
  for q = 0 to 3 do
    let st = Flow_table.shard_stats ft q in
    inn := !inn + st.Flow_table.migrations_in;
    out := !out + st.Flow_table.migrations_out
  done;
  Alcotest.(check int) "in = out" !out !inn;
  Alcotest.(check int) "in = migrated" (Flow_table.migrated_flows ft) !inn;
  (* scale back up: flows respread, still none lost *)
  Rss_table.set_on_move rss (fun ~group ~from_q ~to_q ->
      ignore (Flow_table.move_group ft ~group ~from_q ~to_q));
  Rss_table.set_active rss 4;
  Alcotest.(check int) "respread keeps all" n (Flow_table.count ft);
  Alcotest.(check int) "spread again" (spread 0 + spread 1 + spread 2 + spread 3)
    n

(* [find], the fast path's per-packet lookup (hash the tuple, route it
   through the redirection table to its queue's counter, probe the table),
   over 4096 flows behind 8 queues. The stride, coprime with the table
   size, touches every flow the way independent arrivals do. *)
let test_shards_find_allocation () =
  let _, ft = table ~queues:8 in
  let n = 4096 in
  let tuples = Array.init n tuple in
  let flows = make_flows n in
  Array.iteri (fun i t -> Flow_table.add ft t flows.(i)) tuples;
  let misses = ref 0 in
  let lookups k =
    let j = ref 0 in
    for _ = 1 to k do
      if Flow_table.find ft tuples.(!j) == Flow_state.absent then incr misses;
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
  let rss, ft = table ~queues:2 in
  Flow_table.add ft (tuple 0) (make_flows 1).(0);
  let m = Metrics.create () in
  Flow_table.register ft m ();
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

(* Random adds (new and re-added tuples), removes (present and absent),
   finds (hits and misses) and RSS rewrites against a brute-force model:
   per-queue flows recounted from the present tuples under the current
   redirection table, per-queue counters replayed by the lock model's
   rules. *)
let prop_table_matches_model =
  let n = 24 and queues = 4 in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun i -> `Add i) (int_bound (n - 1)));
          (2, map (fun i -> `Remove i) (int_bound (n - 1)));
          (2, map (fun i -> `Find i) (int_bound (n - 1)));
          (1, map (fun k -> `Scale (1 + k)) (int_bound (queues - 1)));
        ])
  in
  let print_op = function
    | `Add i -> Printf.sprintf "A%d" i
    | `Remove i -> Printf.sprintf "R%d" i
    | `Find i -> Printf.sprintf "F%d" i
    | `Scale k -> Printf.sprintf "S%d" k
  in
  let flows = lazy (make_flows n) in
  QCheck.Test.make ~count:300 ~name:"shards: table matches a brute-force model"
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let flows = Lazy.force flows in
      let rss, ft = table ~queues in
      let present = Array.make n false in
      let active = ref queues in
      let queue_of_group g = g mod !active in
      let queue_of i = queue_of_group (group_of rss i) in
      let lookups = Array.make queues 0
      and installs = Array.make queues 0
      and removes = Array.make queues 0
      and m_in = Array.make queues 0
      and m_out = Array.make queues 0
      and moves = Array.make queues 0
      and migrated = ref 0 in
      let check name got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: table %d, model %d" name got want
      in
      let check_model () =
        check "count" (Flow_table.count ft)
          (Array.fold_left (fun a p -> if p then a + 1 else a) 0 present);
        check "migrated" (Flow_table.migrated_flows ft) !migrated;
        for q = 0 to queues - 1 do
          let flows_q = ref 0 in
          Array.iteri
            (fun i p -> if p && queue_of i = q then incr flows_q)
            present;
          let remote = 96 * (installs.(q) + removes.(q) + moves.(q)) in
          let s = Flow_table.shard_stats ft q in
          let name field = Printf.sprintf "queue %d %s" q field in
          check (name "flows") s.Flow_table.flows !flows_q;
          check (name "shard_count") (Flow_table.shard_count ft q) !flows_q;
          check (name "lookups") s.Flow_table.lookups lookups.(q);
          check (name "installs") s.Flow_table.installs installs.(q);
          check (name "removes") s.Flow_table.removes removes.(q);
          check (name "migrations_in") s.Flow_table.migrations_in m_in.(q);
          check (name "migrations_out") s.Flow_table.migrations_out m_out.(q);
          check (name "remote cycles") s.Flow_table.remote_lock_cycles remote;
          check (name "lock cycles") s.Flow_table.lock_cycles
            ((24 * lookups.(q)) + remote)
        done
      in
      let bump a q = a.(q) <- a.(q) + 1 in
      List.iter
        (fun op ->
          (match op with
          | `Add i ->
            bump installs (queue_of i);
            present.(i) <- true;
            Flow_table.add ft (tuple i) flows.(i)
          | `Remove i ->
            bump removes (queue_of i);
            present.(i) <- false;
            Flow_table.remove ft (tuple i)
          | `Find i ->
            bump lookups (queue_of i);
            let want = if present.(i) then flows.(i) else Flow_state.absent in
            if Flow_table.find ft (tuple i) != want then
              QCheck.Test.fail_reportf "find %d disagrees with the model" i
          | `Scale k ->
            for g = 0 to Rss_table.size rss - 1 do
              let from_q = queue_of_group g and to_q = g mod k in
              let c = ref 0 in
              Array.iteri
                (fun i p -> if p && group_of rss i = g then incr c)
                present;
              if from_q <> to_q && !c > 0 then begin
                bump moves from_q;
                bump moves to_q;
                m_out.(from_q) <- m_out.(from_q) + !c;
                m_in.(to_q) <- m_in.(to_q) + !c;
                migrated := !migrated + !c
              end
            done;
            active := k;
            Rss_table.set_active rss k);
          check_model ())
        ops;
      true)

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
    QCheck_alcotest.to_alcotest prop_table_matches_model;
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
