module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Interval_cc = Tas_tcp.Interval_cc
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo

(* --- x1: congestion-control algorithms in the TAS slow path --------------- *)

let x1_cc_algorithms ?(quick = false) fmt =
  Report.section fmt
    "Ablation x1: slow-path CC algorithm on the Fig. 11 single-link workload";
  Report.note fmt
    "the paper implements rate-based DCTCP (default) and TIMELY (3.2); \
     window-mode DCTCP enforced by the fast path is the third option";
  let duration_ms = if quick then 80 else 200 in
  let tau = 200_000 in
  let algorithms =
    [
      ("DCTCP rate (default)", Exp_cc.Tas_rate tau);
      ( "TIMELY",
        Exp_cc.Tas_custom
          {
            tau_ns = tau;
            cc =
              Interval_cc.Timely
                { t_low_ns = 50_000; t_high_ns = 500_000; addstep_bps = 10e6 };
          } );
      ( "DCTCP window",
        Exp_cc.Tas_custom
          { tau_ns = tau; cc = Interval_cc.Window_dctcp { mss = 1460 } } );
    ]
  in
  let rows =
    List.map
      (fun (name, stack) ->
        let r = Exp_cc.single_link stack ~duration_ms () in
        [
          name;
          Report.f2 r.Exp_cc.avg_fct_ms;
          Report.f1 r.Exp_cc.avg_queue_pkts;
          string_of_int r.Exp_cc.flows_completed;
        ])
      algorithms
  in
  Report.table fmt
    ~header:[ "algorithm"; "avg FCT [ms]"; "avg queue [pkts]"; "flows" ]
    ~rows

(* --- x2: rate vs window enforcement under incast --------------------------- *)

let x2_rate_vs_window ?(quick = false) fmt =
  Report.section fmt
    "Ablation x2: rate-based vs window-based TAS enforcement under incast";
  Report.note fmt
    "paper 3.2: 'rate-based congestion control is more stable with many \
     flows; it smoothes bursts... and thus provides a fairer allocation'";
  let conns = if quick then 1000 else 2000 in
  let rows =
    List.map
      (fun (name, mode) ->
        let r = Exp_incast.run_one_mode mode ~conns in
        [
          name;
          Printf.sprintf "%.4f" r.Exp_incast.fair_share;
          Printf.sprintf "%.4f" r.Exp_incast.median_mb_per_100ms;
          Printf.sprintf "%.4f" r.Exp_incast.p99;
          Printf.sprintf "%.4f" r.Exp_incast.p1;
        ])
      [
        ("TAS rate-based", Exp_incast.Tas_rate_mode);
        ("TAS window-based", Exp_incast.Tas_window_mode);
        ("Linux (window)", Exp_incast.Linux_mode);
      ]
  in
  Report.table fmt
    ~header:[ "enforcement"; "fair[MB]"; "median"; "p99"; "p1" ]
    ~rows

(* --- x3: API cost sweep ------------------------------------------------------ *)

(* Echo throughput on one app core + two fast-path cores as the per-event
   API cost varies between the low-level interface (168 cycles) and well
   beyond the sockets emulation (620 cycles). *)
let echo_tput_with_api api =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:4 ~queues_per_nic:8 () in
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 4096;
      tx_buf_size = 4096;
      control_interval_min_ns = 500_000;
    }
  in
  let tas = Tas.create sim ~nic:net.Topology.server.Topology.nic ~config () in
  let app_core = Core.create sim ~id:900 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api in
  let transport = Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0) in
  Rpc_echo.server transport ~port:7 ~msg_size:64 ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  Array.iter
    (fun client ->
      let ct = Scenario.client_transport sim client ~buf_size:4096 () in
      Rpc_echo.closed_loop_clients sim ct ~n:64
        ~dst_ip:(Tas_netsim.Nic.ip net.Topology.server.Topology.nic)
        ~dst_port:7 ~msg_size:64 ~stagger_ns:10_000 ~start_at:(Time_ns.ms 10)
        ~stats ())
    net.Topology.clients;
  Sim.run ~until:(Time_ns.ms 12) sim;
  Scenario.measure_rate sim ~warmup:(Time_ns.ms 2) ~measure:(Time_ns.ms 5)
    (fun () -> Stats.Counter.value stats.Rpc_echo.completed)

let x3_api_cost ?(quick = false) fmt =
  ignore quick;
  Report.section fmt
    "Ablation x3: sockets emulation vs low-level API cost (1 app core, echo)";
  Report.note fmt
    "Table 1/2: sockets layer 620 cycles/request vs 168 for the low-level \
     API; with one app core the API cost directly bounds throughput";
  let rows =
    List.map
      (fun (name, api) ->
        [ name; Report.mops (echo_tput_with_api api) ])
      [ ("Low-level (168c)", Libtas.Lowlevel); ("Sockets (620c)", Libtas.Sockets) ]
  in
  Report.table fmt ~header:[ "API"; "throughput [mOps]" ] ~rows

(* --- x4: NIC offload projection ---------------------------------------------- *)

(* "Offloaded" fast path: per-packet processing happens in NIC hardware at
   line rate (negligible host cycles); the slow path and libTAS stay as they
   are. Host cores then serve applications only. *)
let echo_tput_offload ~offload ~fp_cores =
  let sim = Sim.create () in
  let net = Topology.star sim ~n_clients:4 ~queues_per_nic:8 () in
  let config =
    if offload then
      {
        Config.default with
        Config.max_fast_path_cores = max 1 fp_cores;
        rx_buf_size = 4096;
        tx_buf_size = 4096;
        control_interval_min_ns = 500_000;
        fp_driver_cycles = 0;
        fp_rx_cycles = 1;
        fp_tx_cycles = 1;
        fp_ack_rx_cycles = 1;
      }
    else
      {
        Config.default with
        Config.max_fast_path_cores = max 1 fp_cores;
        rx_buf_size = 4096;
        tx_buf_size = 4096;
        control_interval_min_ns = 500_000;
      }
  in
  let tas = Tas.create sim ~nic:net.Topology.server.Topology.nic ~config () in
  let app_core = Core.create sim ~id:900 () in
  let lt = Tas.app tas ~app_cores:[| app_core |] ~api:Libtas.Sockets in
  let transport = Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0) in
  Rpc_echo.server transport ~port:7 ~msg_size:64 ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  Array.iter
    (fun client ->
      let ct = Scenario.client_transport sim client ~buf_size:4096 () in
      Rpc_echo.closed_loop_clients sim ct ~n:64
        ~dst_ip:(Tas_netsim.Nic.ip net.Topology.server.Topology.nic)
        ~dst_port:7 ~msg_size:64 ~stagger_ns:10_000 ~start_at:(Time_ns.ms 10)
        ~stats ())
    net.Topology.clients;
  Sim.run ~until:(Time_ns.ms 12) sim;
  Scenario.measure_rate sim ~warmup:(Time_ns.ms 2) ~measure:(Time_ns.ms 5)
    (fun () -> Stats.Counter.value stats.Rpc_echo.completed)

let x4_nic_offload ?(quick = false) fmt =
  ignore quick;
  Report.section fmt
    "Ablation x4: NIC-offload projection of the fast path (echo, 1 app core)";
  Report.note fmt
    "paper 6: 'the minimal but resource intensive fast path can be \
     offloaded to the NIC; the complex but less intensive slow path can \
     remain on host CPUs'";
  let rows =
    [
      (let t = echo_tput_offload ~offload:false ~fp_cores:2 in
       [ "software fast path"; "1 app + 2 fast-path"; Report.mops t ]);
      (let t = echo_tput_offload ~offload:true ~fp_cores:1 in
       [ "NIC-offloaded fast path"; "1 app + 0 host"; Report.mops t ]);
    ]
  in
  Report.table fmt
    ~header:[ "configuration"; "host cores"; "throughput [mOps]" ]
    ~rows;
  Report.note fmt
    "same application throughput with the fast-path cores returned to the \
     host: offload preserves the TAS split while freeing CPUs"
