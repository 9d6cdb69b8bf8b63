module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Rpc_echo = Tas_apps.Rpc_echo

let msg_size = 64
let app_cycles = 300

let throughput_at kind ~rpcs_per_conn =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:4 ~queues_per_nic:8 () in
  (* Paper §5.1: one application core; TAS gets two fast-path cores plus a
     partially-used slow-path core. *)
  let total_cores, split =
    match kind with
    | Scenario.Linux -> (1, Some (1, 0))
    | _ -> (3, Some (1, 2))
  in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic ~kind
      ~total_cores ~app_cycles ?split ~buf_size:4096
      ~tas_patch:(fun c ->
        {
          c with
          Config.max_fast_path_cores = 2;
          control_interval_min_ns = 500_000;
        })
      ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size ~app_cycles;
  let stats = Rpc_echo.make_stats () in
  let conns = 1024 in
  let per_client = conns / 4 in
  Array.iter
    (fun client ->
      let transport = Scenario.client_transport sim client ~buf_size:4096 () in
      Rpc_echo.closed_loop_clients sim transport ~n:per_client
        ~dst_ip:server.Scenario.ip ~dst_port:7 ~msg_size ~rpcs_per_conn
        ~stagger_ns:20_000 ~start_at:(Time_ns.ms 30) ~stats ())
    net.Topology.clients;
  Sim.run ~until:(Time_ns.ms 30) sim;
  (* Longer warmup/measure than the persistent-connection benchmarks:
     throughput includes handshake churn, which needs time to reach steady
     state (SYN retries, TIME_WAIT turnover). *)
  let rate =
    Scenario.measure_rate sim ~warmup:(Time_ns.ms 10) ~measure:(Time_ns.ms 20)
      (fun () -> Stats.Counter.value stats.Rpc_echo.completed)
  in
  (rate, Scenario.arena_refusals server)

let run ?(quick = false) fmt =
  Report.section fmt
    "Figure 5: throughput with short-lived connections (1024 conns, \
     reconnect after N RPCs)";
  Report.note fmt
    "paper: TAS overtakes Linux from ~4 RPCs/conn; reaches 95% of \
     bandwidth-limited rate at 256 RPCs/conn; Linux flat-ish and low";
  let points =
    if quick then [ 4; 256 ] else [ 1; 2; 4; 16; 64; 256; 1024; 4096 ]
  in
  let kinds = [ Scenario.Tas_so; Scenario.Linux ] in
  let results =
    List.map
      (fun kind ->
        ( kind,
          List.map (fun n -> (n, throughput_at kind ~rpcs_per_conn:n)) points
        ))
      kinds
  in
  let header =
    "RPCs/conn" :: List.map (fun k -> Scenario.kind_name k ^ " [mOps]") kinds
  in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun (_, pts) -> Report.mops (fst (List.assoc n pts)))
             results)
      points
  in
  Report.table fmt ~header ~rows;
  (* Every client must be measured: a refused connection leaves its
     client loop dead for the rest of the run. *)
  let refusals =
    List.fold_left (fun acc (_, (_, r)) -> acc + r) 0
      (List.assoc Scenario.Tas_so results)
  in
  Report.gate fmt ~name:"tas_refuses_no_connection" ~ok:(refusals = 0)
    ~observed:(Printf.sprintf "%d arena refusals over the TAS points" refusals)
    ~expected:"0"
