module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Kv_store = Tas_apps.Kv_store
module Rpc_echo = Tas_apps.Rpc_echo

type result = {
  throughput : float;
  latency_us : Stats.Hist.t;
  requests : int;
  app_cycles_per_req : float;
  stack_cycles_per_req : float;
  conns : int;
}

(* Table 1 measures different application-side cycles per stack (the same
   code suffers different cache pollution under each stack). *)
let default_app_cycles = function
  | Scenario.Linux -> 1070
  | Scenario.Ix -> 760
  | Scenario.Mtcp -> 800
  | Scenario.Tas_so | Scenario.Tas_ll -> 680

let run_kv kind ~total_cores ~conns ?app_cycles ?workload ?(think_ns = 0)
    ?(serial_cycles = 0) ?(measure_ms = 6) ?split () =
  let app_cycles =
    match app_cycles with Some c -> c | None -> default_app_cycles kind
  in
  let workload =
    match workload with
    | Some w -> w
    | None -> Kv_store.Client.default_workload
  in
  let sim = Sim.create () in
  let n_clients = 5 in
  let net = Topology.star sim ~n_clients ~queues_per_nic:16 () in
  let buf_size = if conns >= 16384 then 2048 else 8192 in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic ~kind
      ~total_cores ~app_cycles ~buf_size ?split
      ~tas_patch:(fun c ->
        {
          c with
          Config.control_interval_min_ns = 1_000_000;
        })
      ()
  in
  let serial =
    if serial_cycles > 0 then
      Some (server.Scenario.app_cores.(0), serial_cycles)
    else None
  in
  let _kv =
    Kv_store.create_server server.Scenario.transport ~port:11211 ~app_cycles
      ?serial ()
  in
  let stats = Rpc_echo.make_stats () in
  let rng = Rng.create 42 in
  let per_client = conns / n_clients in
  Array.iteri
    (fun i client ->
      let n =
        if i = n_clients - 1 then conns - (per_client * (n_clients - 1))
        else per_client
      in
      if n > 0 then begin
        let transport = Scenario.client_transport sim client ~buf_size () in
        (* Stagger connection setup through client-side think time on the
           first request: connections are established idle, load starts
           when the warmup window opens. *)
        ignore
          (Sim.schedule sim ((i * 97) + 1) (fun () ->
               Kv_store.Client.run sim transport ~rng:(Rng.split rng)
                 ~n_conns:n ~dst_ip:server.Scenario.ip ~dst_port:11211
                 ~workload ~stats ~think_ns ~start_at:(Time_ns.ms 60) ()))
      end)
    net.Topology.clients;
  (* Connections establish idle during the first 60 ms; load starts at the
     gate (jittered over 10 ms), then a warmup long enough for low-capacity
     configurations to reach steady state. *)
  Sim.run ~until:(Time_ns.ms 60) sim;
  Sim.run ~until:(Sim.now sim + Time_ns.ms 15) sim;
  let before = Stats.Counter.value stats.Rpc_echo.completed in
  let app_busy0 =
    Array.fold_left (fun a c -> a + Core.busy_ns c) 0 server.Scenario.app_cores
  in
  let stack_busy0 =
    Array.fold_left
      (fun a c -> a + Core.busy_ns c)
      0 server.Scenario.stack_cores
  in
  Sim.run ~until:(Sim.now sim + Time_ns.ms measure_ms) sim;
  let requests = Stats.Counter.value stats.Rpc_echo.completed - before in
  let app_busy =
    Array.fold_left (fun a c -> a + Core.busy_ns c) 0 server.Scenario.app_cores
    - app_busy0
  in
  let stack_busy =
    Array.fold_left
      (fun a c -> a + Core.busy_ns c)
      0 server.Scenario.stack_cores
    - stack_busy0
  in
  let freq = 2.1 in
  let per_req busy =
    if requests = 0 then 0.0
    else float_of_int busy *. freq /. float_of_int requests
  in
  {
    throughput =
      float_of_int requests /. Time_ns.to_sec_f (Time_ns.ms measure_ms);
    latency_us = stats.Rpc_echo.latency_us;
    requests;
    app_cycles_per_req = per_req app_busy;
    stack_cycles_per_req = per_req stack_busy;
    conns;
  }

(* --- Fig. 8: throughput scalability -------------------------------------- *)

let fig8_kinds = [ Scenario.Tas_ll; Scenario.Tas_so; Scenario.Ix; Scenario.Linux ]

let fig8 ?(quick = false) fmt =
  Report.section fmt "Figure 8: key-value store throughput vs. total cores";
  Report.note fmt
    "paper: TAS LL up to 9.6x Linux / 1.9x IX; TAS SO 7.0x Linux / 1.3x IX";
  let cores = if quick then [ 2; 8 ] else [ 2; 4; 8; 12; 16 ] in
  let conns = if quick then 4_000 else 32_000 in
  let results =
    List.map
      (fun kind ->
        ( kind,
          List.map
            (fun total_cores ->
              (total_cores, (run_kv kind ~total_cores ~conns ()).throughput))
            cores ))
      fig8_kinds
  in
  let header =
    "cores" :: List.map (fun k -> Scenario.kind_name k ^ " [mOps]") fig8_kinds
  in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun (_, points) -> Report.mops (List.assoc c points))
             results)
      cores
  in
  Report.table fmt ~header ~rows

let table6 fmt =
  Report.section fmt "Table 6: TAS core split (key-value store)";
  Report.note fmt
    "paper SO: 2->1/1 4->2/2 8->5/3 12->7/5 16->9/7; LL: even splits";
  let cores = [ 2; 4; 8; 12; 16 ] in
  let rows =
    List.concat_map
      (fun kind ->
        let api, name =
          match kind with
          | Scenario.Tas_so -> (680, "Sockets")
          | _ -> (680, "Lowlevel")
        in
        ignore api;
        [
          (name ^ " App")
          :: List.map
               (fun total ->
                 let app, _ = Scenario.core_split kind ~total ~app_cycles:680 in
                 string_of_int app)
               cores;
          (name ^ " TAS")
          :: List.map
               (fun total ->
                 let _, fp = Scenario.core_split kind ~total ~app_cycles:680 in
                 string_of_int fp)
               cores;
        ])
      [ Scenario.Tas_so; Scenario.Tas_ll ]
  in
  Report.table fmt
    ~header:("split" :: List.map string_of_int cores)
    ~rows

(* --- Fig. 9 / Table 5: latency ------------------------------------------- *)

let fig9_table5 ?(quick = false) fmt =
  Report.section fmt
    "Figure 9 / Table 5: key-value store latency at ~15% utilization";
  Report.note fmt
    "paper (TAS clients): Linux 97/129/177/1319 us; IX 20/27/30/280; \
     TAS 17/20/30/122 (median/90th/99th/max)";
  let kinds =
    if quick then [ Scenario.Tas_so; Scenario.Linux ]
    else [ Scenario.Tas_so; Scenario.Ix; Scenario.Linux ]
  in
  (* One app core; think time tuned to ~15% of single-core saturation. *)
  let rows =
    List.map
      (fun kind ->
        let think_ns =
          match kind with
          | Scenario.Linux -> 450_000
          | _ -> 60_000
        in
        let r =
          run_kv kind ~total_cores:2 ~conns:64 ~think_ns ~measure_ms:40 ()
        in
        [
          Scenario.kind_name kind;
          Report.f1 (Stats.Hist.percentile r.latency_us 50.0);
          Report.f1 (Stats.Hist.percentile r.latency_us 90.0);
          Report.f1 (Stats.Hist.percentile r.latency_us 99.0);
          Report.f1 (Stats.Hist.max_v r.latency_us);
        ])
      kinds
  in
  Report.table fmt
    ~header:[ "stack"; "median[us]"; "90th"; "99th"; "max" ]
    ~rows

(* --- Table 7: non-scalable workload --------------------------------------- *)

let table7 ?(quick = false) fmt =
  Report.section fmt
    "Table 7: non-scalable key-value workload (single 4-byte key)";
  Report.note fmt
    "paper [mOps]: TAS LL 2.4/3.8/4.6(4C); TAS SO 2.4/3.1/3.1; \
     IX 1.5/2.5/2.8/2.8; Linux 0.3/0.4/0.6/0.8";
  let workload =
    {
      Kv_store.Client.n_keys = 1;
      key_size = 4;
      value_size = 4;
      get_fraction = 0.5;
      zipf_s = 0.01;
    }
  in
  let cores = if quick then [ 2; 4 ] else [ 1; 2; 3; 4 ] in
  let kinds =
    [ Scenario.Tas_ll; Scenario.Tas_so; Scenario.Ix; Scenario.Linux ]
  in
  let rows =
    List.map
      (fun kind ->
        Scenario.kind_name kind
        :: List.map
             (fun total_cores ->
               if
                 total_cores = 1
                 && (kind = Scenario.Tas_ll || kind = Scenario.Tas_so)
               then "-" (* TAS needs at least one app + one fast-path core *)
               else begin
                 let split =
                   match kind with
                   | Scenario.Tas_ll | Scenario.Tas_so ->
                     (* Paper: 1 application core + 1-3 fast-path cores. *)
                     Some (1, total_cores - 1)
                   | _ -> None
                 in
                 let r =
                   run_kv kind ~total_cores ~conns:256 ~app_cycles:150
                     ~serial_cycles:140 ~workload ?split ()
                 in
                 Report.mops r.throughput
               end)
             cores)
      kinds
  in
  Report.table fmt ~header:("stack" :: List.map string_of_int cores) ~rows
