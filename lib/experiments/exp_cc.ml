module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module E = Tas_baseline.Tcp_engine
module Window_cc = Tas_tcp.Window_cc
module Transport = Tas_apps.Transport

type stack =
  | Tcp_newreno
  | Dctcp_window
  | Tas_rate of int
  | Tas_custom of { tau_ns : int; cc : Tas_tcp.Interval_cc.algorithm }

let stack_name = function
  | Tcp_newreno -> "TCP"
  | Dctcp_window -> "DCTCP"
  | Tas_rate _ -> "TAS"
  | Tas_custom _ -> "TAS*"

(* A flow carries a 12-byte header (size + start time) so the receiver can
   detect completion and compute the flow completion time. *)
let header_size = 12

let encode_header ~size ~start =
  let b = Bytes.create header_size in
  Bytes.set_int32_be b 0 (Int32.of_int size);
  Bytes.set_int64_be b 4 (Int64.of_int start);
  b

let decode_header b =
  ( Int32.to_int (Bytes.get_int32_be b 0),
    Int64.to_int (Bytes.get_int64_be b 4) )

(* Flow sink: a listener that tracks per-connection progress and reports
   (size, fct_ns) on completion. *)
let install_sink transport ~port ~on_complete =
  Transport.listen transport ~port (fun _conn ->
      let header = Buffer.create header_size in
      let expected = ref (-1) in
      let started = ref 0 in
      let got = ref 0 in
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun _conn data ->
            let off = ref 0 in
            let len = Bytes.length data in
            if !expected < 0 then begin
              let need = header_size - Buffer.length header in
              let take = min need len in
              Buffer.add_subbytes header data 0 take;
              off := take;
              if Buffer.length header = header_size then begin
                let size, start = decode_header (Buffer.to_bytes header) in
                expected := size;
                started := start
              end
            end;
            if !expected >= 0 then begin
              got := !got + (len - !off);
              if !got >= !expected then on_complete ~size:!expected ~start:!started
            end);
        Transport.on_peer_closed = (fun conn -> Transport.close conn);
      })

(* Flow source: open a connection, stream [size] payload bytes (after the
   header), then close. *)
let launch_flow sim transport ~dst_ip ~dst_port ~size =
  let start = Sim.now sim in
  let sent = ref 0 in
  let total = size + header_size in
  let chunk = Bytes.create 8192 in
  let push conn =
    let continue = ref true in
    while !sent < total && !continue do
      let payload =
        if !sent = 0 then
          (* Header followed by filler in one write. *)
          Bytes.cat (encode_header ~size ~start)
            (Bytes.sub chunk 0 (min (8192 - header_size) (total - header_size)))
        else Bytes.sub chunk 0 (min 8192 (total - !sent))
      in
      let n = Transport.send conn payload in
      sent := !sent + n;
      if n < Bytes.length payload then continue := false
    done;
    if !sent >= total then Transport.close conn
  in
  Transport.connect transport ~dst_ip ~dst_port (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected = (fun conn -> push conn);
        Transport.on_sendable = (fun conn -> push conn);
      })

(* Build a host of the given stack on an endpoint; protocol-level hosts
   (the paper's §5.5 simulations are ns-3: no CPU model), so TAS gets ample
   fast-path cores and zero-cost apps. *)
let make_host sim (endpoint : Topology.endpoint) stack ~buf =
  match stack with
  | Tcp_newreno | Dctcp_window ->
    let algorithm =
      match stack with
      | Tcp_newreno -> Window_cc.Newreno
      | _ -> Window_cc.Dctcp
    in
    let config =
      { E.default_config with E.rx_buf = buf; tx_buf = buf; algorithm }
    in
    let engine = E.create sim endpoint.Topology.nic config in
    E.attach engine;
    Transport.of_engine engine
  | Tas_rate _ | Tas_custom _ ->
    let tau, cc =
      match stack with
      | Tas_rate tau -> (tau, Config.default.Config.cc)
      | Tas_custom { tau_ns; cc } -> (tau_ns, cc)
      | Tcp_newreno | Dctcp_window -> assert false
    in
    let config =
      {
        Config.default with
        Config.max_fast_path_cores = 4;
        rx_buf_size = buf;
        tx_buf_size = buf;
        cc;
        control_interval_fixed_ns = Some tau;
        (* Comparable aggressiveness to DCTCP's IW10 at the simulated RTT. *)
        initial_rate_bps = 400e6;
        (* Pure protocol simulation: make CPU costs negligible. *)
        fp_driver_cycles = 1;
        fp_rx_cycles = 1;
        fp_tx_cycles = 1;
        fp_ack_rx_cycles = 1;
        sp_conn_cycles = 1;
        sp_flow_control_cycles = 1;
      }
    in
    let tas = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
    let cores =
      [| Core.create sim ~id:(1000 + endpoint.Topology.host_id) () |]
    in
    let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Lowlevel in
    Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0)

(* --- Fig. 11: single link -------------------------------------------------- *)

type single_link_result = {
  avg_fct_ms : float;
  avg_queue_pkts : float;
  flows_completed : int;
}

let single_link stack ?(duration_ms = 200) () =
  let sim = Sim.create () in
  let rng = Rng.create 2024 in
  (* RTT 100us: 25us propagation each traversal. *)
  let spec =
    {
      (Topology.link_10g ~ecn_threshold:65 ()) with
      Topology.delay = Time_ns.us 25;
    }
  in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let sender = make_host sim net.Topology.a stack ~buf:262144 in
  let receiver = make_host sim net.Topology.b stack ~buf:262144 in
  let fct = Stats.Summary.create () and completed = ref 0 in
  install_sink receiver ~port:5001 ~on_complete:(fun ~size:_ ~start ->
      incr completed;
      Stats.Summary.add fct (Time_ns.to_ms_f (Sim.now sim - start)));
  let draw_size () =
    int_of_float
      (Rng.pareto_bounded rng ~alpha:1.2 ~min_v:2000.0 ~max_v:2_000_000.0)
  in
  let dst_ip = Tas_netsim.Nic.ip net.Topology.b.Topology.nic in
  let rec arrival () =
    let size = draw_size () in
    launch_flow sim sender ~dst_ip ~dst_port:5001 ~size;
    (* Spacing proportional to size yields exactly the target load, 75%. *)
    let gap =
      float_of_int ((size + header_size) * 8) /. (0.75 *. 10e9) *. 1e9
    in
    let jitter = Rng.exponential rng 1.0 in
    ignore
      (Sim.schedule sim
         (max 1 (int_of_float (gap *. jitter)))
         arrival)
  in
  arrival ();
  (* Queue sampling at the bottleneck. *)
  let queue = Stats.Summary.create () in
  Sim.periodic sim (Time_ns.us 10) (fun () ->
      Stats.Summary.add queue
        (float_of_int (Port.queue_len net.Topology.a.Topology.uplink)));
  Sim.run ~until:(Time_ns.ms duration_ms) sim;
  {
    avg_fct_ms = Stats.Summary.mean fct;
    avg_queue_pkts = Stats.Summary.mean queue;
    flows_completed = !completed;
  }

let fig11 ?(quick = false) fmt =
  Report.section fmt
    "Figure 11: single 10G link, avg FCT and queue vs control interval tau";
  Report.note fmt
    "paper: TAS FCT ~= DCTCP for tau >= RTT (100us); too-small tau slows \
     convergence; queue grows slowly with tau; TCP queue ~10x DCTCP";
  let taus =
    if quick then [ 100_000; 500_000 ]
    else [ 25_000; 50_000; 100_000; 200_000; 400_000; 600_000; 800_000; 1_000_000 ]
  in
  let duration_ms = if quick then 80 else 200 in
  let tcp = single_link Tcp_newreno ~duration_ms () in
  let dctcp = single_link Dctcp_window ~duration_ms () in
  Report.table fmt
    ~header:[ "stack/tau"; "avg FCT [ms]"; "avg queue [pkts]"; "flows" ]
    ~rows:
      ([
         [ "TCP"; Report.f2 tcp.avg_fct_ms; Report.f1 tcp.avg_queue_pkts;
           string_of_int tcp.flows_completed ];
         [ "DCTCP"; Report.f2 dctcp.avg_fct_ms; Report.f1 dctcp.avg_queue_pkts;
           string_of_int dctcp.flows_completed ];
       ]
      @ List.map
          (fun tau ->
            let r = single_link (Tas_rate tau) ~duration_ms () in
            [
              Printf.sprintf "TAS tau=%dus" (tau / 1000);
              Report.f2 r.avg_fct_ms;
              Report.f1 r.avg_queue_pkts;
              string_of_int r.flows_completed;
            ])
          taus)

(* --- Fig. 12: fat-tree cluster -------------------------------------------- *)

type cluster_result = {
  short_fct_ms : Stats.Hist.t;
      (* recorded in microseconds for bucket resolution *)
  long_fct_ms : Stats.Hist.t;
  completed : int;
  core_utilization : float;  (* mean busy fraction of core-layer links *)
}

let cluster stack ?(k = 8) ?(duration_ms = 60) () =
  let sim = Sim.create () in
  let rng = Rng.create 77 in
  let net = Topology.fat_tree sim ~k () in
  let hosts = net.Topology.ft_hosts in
  let n = Array.length hosts in
  let transports =
    Array.map (fun ep -> make_host sim ep stack ~buf:131072) hosts
  in
  let short = Stats.Hist.create () and long = Stats.Hist.create () in
  let completed = ref 0 in
  let short_threshold = 50 * 1460 in
  Array.iter
    (fun transport ->
      install_sink transport ~port:5001 ~on_complete:(fun ~size ~start ->
          incr completed;
          (* Microseconds: sub-ms completion times need bucket resolution. *)
          let fct = Time_ns.to_us_f (Sim.now sim - start) in
          if size <= short_threshold then Stats.Hist.add short fct
          else Stats.Hist.add long fct))
    transports;
  (* On-off traffic: each host launches flows to random other hosts with
     spacing that targets ~30% average load on (oversubscribed) core links:
     host offered rate 0.5 Gbps. *)
  let per_host_bps = 0.5e9 in
  Array.iteri
    (fun i transport ->
      let host_rng = Rng.split rng in
      let rec arrival () =
        let size =
          int_of_float
            (Rng.pareto_bounded host_rng ~alpha:1.2 ~min_v:2000.0
               ~max_v:1_000_000.0)
        in
        let dst = (i + 1 + Rng.int host_rng (n - 1)) mod n in
        launch_flow sim transport
          ~dst_ip:(Tas_netsim.Nic.ip hosts.(dst).Topology.nic)
          ~dst_port:5001 ~size;
        let gap =
          float_of_int ((size + header_size) * 8) /. per_host_bps *. 1e9
        in
        let jitter = Rng.exponential host_rng 1.0 in
        ignore
          (Sim.schedule sim (max 1 (int_of_float (gap *. jitter))) arrival)
      in
      ignore (Sim.schedule sim (Rng.int host_rng 1_000_000) arrival))
    transports;
  Sim.run ~until:(Time_ns.ms duration_ms) sim;
  let core_utilization =
    let ports = net.Topology.ft_core_ports in
    let total =
      List.fold_left (fun a p -> a +. float_of_int (Port.busy_ns p)) 0.0 ports
    in
    total
    /. float_of_int (List.length ports)
    /. float_of_int (Time_ns.ms duration_ms)
  in
  {
    short_fct_ms = short;
    long_fct_ms = long;
    completed = !completed;
    core_utilization;
  }

let fig12 ?(quick = false) fmt =
  Report.section fmt
    "Figure 12: fat-tree cluster FCT distributions (scaled to k=8, 128 hosts)";
  Report.note fmt
    "paper: TAS ~= DCTCP for both short and long flows; TCP tail much longer";
  let k = if quick then 4 else 8 in
  let duration_ms = if quick then 30 else 60 in
  let stacks = [ Tcp_newreno; Dctcp_window; Tas_rate 100_000 ] in
  let results = List.map (fun s -> (s, cluster s ~k ~duration_ms ())) stacks in
  List.iter
    (fun (s, r) ->
      Report.kv fmt
        (stack_name s ^ " core-link utilization")
        (Report.pct (100.0 *. r.core_utilization)))
    results;
  List.iter
    (fun (label, select) ->
      Format.fprintf fmt "  -- %s flows: FCT percentiles [ms] --@." label;
      let header = [ "stack"; "p50"; "p90"; "p99"; "flows" ] in
      let rows =
        List.map
          (fun (s, r) ->
            let h = select r in
            [
              stack_name s;
              Report.f2 (Stats.Hist.percentile h 50.0 /. 1000.0);
              Report.f2 (Stats.Hist.percentile h 90.0 /. 1000.0);
              Report.f2 (Stats.Hist.percentile h 99.0 /. 1000.0);
              string_of_int (Stats.Hist.count h);
            ])
          results
      in
      Report.table fmt ~header ~rows)
    [
      ("short (<=50 pkts)", fun r -> r.short_fct_ms);
      ("long (>50 pkts)", fun r -> r.long_fct_ms);
    ]
