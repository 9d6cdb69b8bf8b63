module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Rpc_echo = Tas_apps.Rpc_echo

let msg_size = 64
let echo_app_cycles = 300

type point = { ops_per_s : float; refusals : int; flows : int }

let throughput_at kind ~conns ~total_cores =
  let sim = Sim.create () in
  let n_clients = 6 in
  let net = Topology.star sim ~n_clients ~queues_per_nic:16 () in
  let buf_size = if conns >= 16384 then 2048 else 8192 in
  let server =
    Scenario.build_server sim ~nic:net.Topology.server.Topology.nic ~kind
      ~total_cores ~app_cycles:echo_app_cycles ~buf_size
      ~tas_patch:(fun c ->
        {
          c with
          (* One Table-3 record per connection: the paper's figure
             measures every client, so none may be refused. *)
          Config.flow_arena_capacity = conns;
          (* With tens of thousands of flows, per-flow CC iterations are
             batched at a coarser tick to bound slow-path load. *)
          control_interval_min_ns = 1_000_000;
        })
      ()
  in
  Rpc_echo.server server.Scenario.transport ~port:7 ~msg_size
    ~app_cycles:echo_app_cycles;
  let stats = Rpc_echo.make_stats () in
  let per_client = conns / n_clients in
  Array.iteri
    (fun i client ->
      let n =
        if i = n_clients - 1 then conns - (per_client * (n_clients - 1))
        else per_client
      in
      if n > 0 then begin
        let transport = Scenario.client_transport sim client ~buf_size () in
        Rpc_echo.closed_loop_clients sim transport ~n
          ~dst_ip:server.Scenario.ip ~dst_port:7 ~msg_size
          ~stagger_ns:(min 2000 (50_000_000 / conns))
          ~start_at:(Time_ns.ms 60) ~stats ()
      end)
    net.Topology.clients;
  (* Connections establish (staggered, idle) during the first 60 ms; load
     starts at the gate. The warmup must cover at least one closed-loop
     round (conns / capacity) so saturated stacks reach steady state: the
     slowest stack here serves ~1.5 M requests/s on 20 cores. *)
  Sim.run ~until:(Time_ns.ms 60) sim;
  (* Closed-loop saturation needs the warmup to cover at least one round
     (round = conns / capacity), and — because a deterministic simulation
     sustains the synchronized convoy the gate creates — the in-kernel
     stack must also be *measured* across whole convoy rounds so phases
     average out. *)
  let warmup_ms, measure_ms =
    match kind with
    | Scenario.Linux -> (max 3 (conns / 400), max 6 (conns / 1200))
    | _ -> (max 3 (conns / 1300), 6)
  in
  let rate =
    Scenario.measure_rate sim ~warmup:(Time_ns.ms warmup_ms)
      ~measure:(Time_ns.ms measure_ms) (fun () ->
        Stats.Counter.value stats.Rpc_echo.completed)
  in
  let flows =
    match server.Scenario.tas with
    | Some tas -> Tas_core.Slow_path.flow_count (Tas_core.Tas.slow_path tas)
    | None -> 0
  in
  { ops_per_s = rate; refusals = Scenario.arena_refusals server; flows }

let run ?(quick = false) fmt =
  Report.section fmt "Figure 4: connection scalability (RPC echo, 20 cores)";
  Report.note fmt
    "paper: TAS ~flat (-7% at 96K); IX peaks then -60%; Linux -40%; \
     TAS = 5.1x Linux and ~IX at 1K conns; 2.2x IX at 64K";
  let conn_counts =
    if quick then [ 1_000; 32_000 ]
    else [ 1_000; 16_000; 32_000; 64_000; 96_000 ]
  in
  let kinds = [ Scenario.Tas_so; Scenario.Ix; Scenario.Linux ] in
  let results =
    List.map
      (fun kind ->
        ( kind,
          List.map
            (fun conns ->
              (conns, throughput_at kind ~conns ~total_cores:20))
            conn_counts ))
      kinds
  in
  let header =
    "connections"
    :: List.map (fun k -> Scenario.kind_name k ^ " [mOps]") kinds
  in
  let rows =
    List.map
      (fun conns ->
        string_of_int conns
        :: List.map
             (fun (_, points) ->
               Report.mops (List.assoc conns points).ops_per_s)
             results)
      conn_counts
  in
  Report.table fmt ~header ~rows;
  let tas = List.assoc Scenario.Tas_so results in
  Report.kv fmt "TAS flows established at the end of the window"
    (String.concat ", "
       (List.map
          (fun (conns, p) -> Printf.sprintf "%d of %d" p.flows conns)
          tas));
  let refusals = List.fold_left (fun acc (_, p) -> acc + p.refusals) 0 tas in
  Report.gate fmt ~name:"tas_refuses_no_connection" ~ok:(refusals = 0)
    ~observed:(Printf.sprintf "%d arena refusals over the TAS points" refusals)
    ~expected:"0"
