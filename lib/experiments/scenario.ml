module Sim = Tas_engine.Sim
module Core = Tas_cpu.Core
module Cost_model = Tas_cpu.Cost_model
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module E = Tas_baseline.Tcp_engine
module SM = Tas_baseline.Server_model
module Transport = Tas_apps.Transport
module Topology = Tas_netsim.Topology

type kind = Tas_ll | Tas_so | Linux | Ix | Mtcp

let kind_name = function
  | Tas_ll -> "TAS LL"
  | Tas_so -> "TAS SO"
  | Linux -> "Linux"
  | Ix -> "IX"
  | Mtcp -> "mTCP"

type server = {
  transport : Transport.t;
  ip : Tas_proto.Addr.ipv4;
  app_cores : Core.t array;
  stack_cores : Core.t array;
  tas : Tas.t option;
}

(* Per-request cycle costs on each side of the app/stack split, from the
   calibrated profiles; used to pick the split that balances capacities
   (reproduces paper Table 6). *)
let split_costs kind ~app_cycles =
  match kind with
  | Tas_so -> Some (Cost_model.tas_sockets_cycles + app_cycles, 900)
  | Tas_ll -> Some (Cost_model.tas_lowlevel_cycles + app_cycles, 900)
  | Mtcp ->
    let p = Cost_model.mtcp in
    Some
      ( p.Cost_model.sockets_cycles + app_cycles,
        (2 * p.Cost_model.driver_cycles)
        + p.Cost_model.ip_cycles + p.Cost_model.tcp_rx_cycles
        + p.Cost_model.tcp_tx_cycles )
  | Linux | Ix -> None

let core_split kind ~total ~app_cycles =
  match split_costs kind ~app_cycles with
  | None -> (total, 0)
  | Some (app_cost, stack_cost) ->
    if total <= 1 then (1, 0)
    else begin
      let frac = float_of_int app_cost /. float_of_int (app_cost + stack_cost) in
      let app = int_of_float (Float.round (float_of_int total *. frac)) in
      let app = max 1 (min (total - 1) app) in
      (app, total - app)
    end

let build_server sim ~nic ~kind ~total_cores ?(app_cycles = 680)
    ?(buf_size = 16384) ?(tas_patch = fun c -> c) ?split ?span
    ?(timeline_ns = 0) () =
  let app_n, stack_n =
    match split with
    | Some s -> s
    | None -> core_split kind ~total:total_cores ~app_cycles
  in
  let app_cores = Array.init app_n (fun i -> Core.create sim ~id:i ()) in
  let stack_cores =
    Array.init stack_n (fun i -> Core.create sim ~id:(100 + i) ())
  in
  match kind with
  | Tas_ll | Tas_so ->
    let config =
      tas_patch
        {
          Config.default with
          Config.max_fast_path_cores = max 1 stack_n;
          rx_buf_size = buf_size;
          tx_buf_size = buf_size;
          timeline_interval_ns = timeline_ns;
        }
    in
    let tas = Tas.create sim ~nic ~config ?span () in
    let api = if kind = Tas_ll then Libtas.Lowlevel else Libtas.Sockets in
    let lt = Tas.app tas ~app_cores ~api in
    let n = Array.length app_cores in
    let transport = Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod n) in
    {
      transport;
      ip = Tas_netsim.Nic.ip nic;
      app_cores;
      stack_cores = Tas.fp_cores tas;
      tas = Some tas;
    }
  | Linux | Ix | Mtcp ->
    let profile =
      match kind with
      | Linux -> Cost_model.linux
      | Ix -> Cost_model.ix
      | Mtcp -> Cost_model.mtcp
      | Tas_ll | Tas_so -> assert false
    in
    let config =
      { E.default_config with E.rx_buf = buf_size; tx_buf = buf_size }
    in
    let placement =
      if kind = Mtcp then SM.Split { stack_cores } else SM.Inline
    in
    let sm = SM.create sim ~nic ~config ~profile ~app_cores ~placement () in
    {
      transport = Transport.of_server_model sm;
      ip = Tas_netsim.Nic.ip nic;
      app_cores;
      stack_cores;
      tas = None;
    }

let client_transport sim endpoint ?(buf_size = 16384) () =
  let config =
    {
      E.default_config with
      E.rx_buf = buf_size;
      tx_buf = buf_size;
      (* Linux client initial RTO (200 ms): an aggressive datacenter RTO
         would flood an intentionally-saturated server with duplicate
         requests while responses queue behind its round time. *)
      initial_rto_ns = 200_000_000;
    }
  in
  let engine = E.create sim endpoint.Topology.nic config in
  E.attach engine;
  Transport.of_engine engine

let arena_refusals server =
  match server.tas with
  | Some tas -> Tas_core.Slow_path.arena_refusals (Tas_core.Tas.slow_path tas)
  | None -> 0

let measure_rate sim ~warmup ~measure counter =
  Sim.run ~until:(Sim.now sim + warmup) sim;
  let before = counter () in
  Sim.run ~until:(Sim.now sim + measure) sim;
  let delta = counter () - before in
  float_of_int delta /. Tas_engine.Time_ns.to_sec_f measure
