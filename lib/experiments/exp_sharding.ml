(* "sh": core scaling of the sharded fast path — a Figure-4-shaped sweep
   over the number of active fast-path cores at fixed offered load.

   The workload is a saturating closed-loop pipelined RPC echo from an
   ideal (cost-free) client host, so the server's fast path is the only
   bottleneck; per-packet fast-path costs are inflated (x4 over the
   calibrated Table-1 profile) so neither the app cores nor the link hide
   it. Each point runs a fresh simulation with the RSS redirection table
   rewritten to c active queues before any connection is installed, and
   reports throughput plus per-shard occupancy and spinlock-model cycles.

   A scale-down migration drill rides along: rewrite a populated table
   from N queues to 1 and check every flow survives exactly once
   (drain-in-place, §3.4). *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Fast_path = Tas_core.Fast_path
module Flow_table = Tas_core.Flow_table
module Rpc_echo = Tas_apps.Rpc_echo
module J = Tas_telemetry.Json

let msg_size = 64
let echo_app_cycles = 300

(* Inflate the fast path's per-packet costs so it saturates well below the
   app cores, the ideal clients and the 10G link: the sweep then measures
   fast-path core capacity, nothing else. *)
let inflate_fp c =
  {
    c with
    Config.fp_driver_cycles = 4 * c.Config.fp_driver_cycles;
    fp_rx_cycles = 4 * c.Config.fp_rx_cycles;
    fp_tx_cycles = 4 * c.Config.fp_tx_cycles;
    fp_ack_rx_cycles = 4 * c.Config.fp_ack_rx_cycles;
  }

type point = {
  cores : int;
  mops : float;
  shard_flows : int array;  (** occupancy of the active shards *)
  imbalance : float;  (** max/mean occupancy over active shards *)
  lock_cycles : int;
  remote_lock_cycles : int;
  migrated : int;
}

(* One sweep point: [cores] active fast-path queues under the fixed load.
   The table is rewritten while still empty, so any migrations seen here
   would be a bug (asserted in the artifact, not silently dropped). *)
let run_point ~quick ~max_cores ~conns cores =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:1 ~queues_per_nic:max_cores () in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic
      ~kind:Scenario.Tas_ll ~total_cores:(4 + max_cores)
      ~app_cycles:echo_app_cycles ~split:(4, max_cores)
      ~tas_patch:inflate_fp
      ()
  in
  let tas = Option.get server.Scenario.tas in
  Fast_path.set_active_cores (Tas.fast_path tas) cores;
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size
    ~app_cycles:echo_app_cycles;
  let stats = Rpc_echo.make_stats () in
  let transport =
    Scenario.client_transport sim net.Topology.clients.(0) ()
  in
  Rpc_echo.closed_loop_clients sim transport ~n:conns
    ~dst_ip:server.Scenario.ip ~dst_port:7 ~msg_size ~pipeline:16
    ~stagger_ns:2_000 ~stats ();
  let warmup, measure =
    if quick then (Time_ns.ms 5, Time_ns.ms 10)
    else (Time_ns.ms 10, Time_ns.ms 20)
  in
  let rate =
    Scenario.measure_rate sim ~warmup ~measure (fun () ->
        Stats.Counter.value stats.Rpc_echo.completed)
  in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  let shard_flows =
    Array.init
      (min cores (Flow_table.num_shards ft))
      (Flow_table.shard_count ft)
  in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 shard_flows)
    /. float_of_int (max 1 (Array.length shard_flows))
  in
  let imbalance =
    if mean > 0.0 then
      float_of_int (Array.fold_left max 0 shard_flows) /. mean
    else 1.0
  in
  ( {
      cores;
      mops = rate /. 1e6;
      shard_flows;
      imbalance;
      lock_cycles = Flow_table.lock_cycles ft;
      remote_lock_cycles = Flow_table.remote_lock_cycles ft;
      migrated = Flow_table.migrated_flows ft;
    },
    tas )

(* Scale-down drill: populate the table at [max_cores] active queues, then
   rewrite to 1 and account for every flow. *)
let migration_drill ~quick ~max_cores ~conns =
  let p, tas = run_point ~quick ~max_cores ~conns max_cores in
  let ft = Fast_path.flows (Tas.fast_path tas) in
  let before = Flow_table.count ft in
  let dump_before = J.to_string (Flow_table.dump ft) in
  Fast_path.set_active_cores (Tas.fast_path tas) 1;
  let after = Flow_table.count ft in
  let dump_after = J.to_string (Flow_table.dump ft) in
  let moved = Flow_table.migrated_flows ft - p.migrated in
  let landed = Flow_table.shard_count ft 0 in
  (before, after, moved, landed, dump_before = dump_after)

let point_json p =
  J.Obj
    [
      ("cores", J.Int p.cores);
      ("mops", J.Float p.mops);
      ( "shard_flows",
        J.List (Array.to_list (Array.map (fun n -> J.Int n) p.shard_flows)) );
      ("imbalance", J.Float p.imbalance);
      ("lock_cycles", J.Int p.lock_cycles);
      ("remote_lock_cycles", J.Int p.remote_lock_cycles);
      ("migrated_flows", J.Int p.migrated);
    ]

let run ?(quick = false) fmt =
  Report.section fmt
    "Sharding: fast-path core scaling with per-queue flow shards";
  Report.note fmt
    "fixed saturating load; throughput should rise with each added \
     fast-path core (paper Fig. 4 flavor); lock cycles stay slow-path-only";
  let max_cores = if quick then 4 else 6 in
  let conns = if quick then 64 else 96 in
  let core_counts = List.init max_cores (fun i -> i + 1) in
  let points =
    List.map
      (fun c -> fst (run_point ~quick ~max_cores ~conns c))
      core_counts
  in
  Report.series fmt ~name:"throughput [mOps] vs active cores"
    (List.map (fun p -> (string_of_int p.cores, p.mops)) points);
  Report.table fmt
    ~header:
      [ "cores"; "mOps"; "flows/shard"; "imbalance"; "lock cyc"; "remote cyc" ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.cores;
             Report.f2 p.mops;
             String.concat "/"
               (Array.to_list (Array.map string_of_int p.shard_flows));
             Report.f2 p.imbalance;
             string_of_int p.lock_cycles;
             string_of_int p.remote_lock_cycles;
           ])
         points);
  let monotonic =
    let rec chk = function
      | a :: (b :: _ as rest) -> a.mops < b.mops && chk rest
      | _ -> true
    in
    chk points
  in
  Report.gate fmt ~name:"monotonic" ~ok:monotonic
    ~observed:
      (String.concat " -> " (List.map (fun p -> Report.f2 p.mops) points))
    ~expected:"mOps strictly increasing in active cores";
  let before, after, moved, landed, dump_eq =
    migration_drill ~quick ~max_cores ~conns
  in
  Report.kv fmt "scale-down migration (N->1 queues)"
    (Printf.sprintf
       "%d flows before, %d after, %d moved, %d on shard 0, dump %s" before
       after moved landed
       (if dump_eq then "identical" else "DIFFERS"));
  Report.gate fmt ~name:"flows_conserved" ~ok:(before = after)
    ~observed:(Printf.sprintf "%d before, %d after" before after)
    ~expected:"as many flows after the migration as before";
  Report.gate fmt ~name:"dump_identical" ~ok:dump_eq
    ~observed:(if dump_eq then "identical" else "differs")
    ~expected:"flow dump identical across the migration";
  Report.attach "sharding"
    (J.Obj
       [
         ("max_cores", J.Int max_cores);
         ("conns", J.Int conns);
         ("points", J.List (List.map point_json points));
         ("monotonic", J.Bool monotonic);
         ( "migration",
           J.Obj
             [
               ("flows_before", J.Int before);
               ("flows_after", J.Int after);
               ("moved", J.Int moved);
               ("landed_on_shard0", J.Int landed);
               ("dump_identical", J.Bool dump_eq);
             ] );
       ])
