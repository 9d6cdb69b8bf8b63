module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module E = Tas_baseline.Tcp_engine
module Transport = Tas_apps.Transport

type result = {
  median_mb_per_100ms : float;
  p99 : float;
  p1 : float;
  fair_share : float;
}

type mode = Tas_rate_mode | Tas_window_mode | Linux_mode

let run_one_mode mode ~conns =
  let sim = Sim.create () in
  (* 4 sender machines, one receiver: all hosts at 10G behind the marking
     switch, so the receiver downlink is the bottleneck. *)
  let spec10 = Topology.link_10g ~ecn_threshold:65 () in
  let net =
    Topology.star sim ~n_clients:4 ~client_spec:spec10 ~server_spec:spec10
      ~queues_per_nic:8 ()
  in
  (* Receiver: ideal engine host (the paper measures received bytes). *)
  let receiver =
    Scenario.client_transport sim net.Topology.server ~buf_size:32768 ()
  in
  (* Per-connection delivered-byte counters. *)
  let counters : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  Transport.listen receiver ~port:5001 (fun _ ->
      incr next;
      let cell = ref 0 in
      Hashtbl.replace counters !next cell;
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun _ data -> cell := !cell + Bytes.length data);
      });
  let senders =
    Array.map
      (fun client ->
        match mode with
        | Tas_rate_mode | Tas_window_mode ->
          let config =
            {
              Config.default with
              Config.max_fast_path_cores = 2;
              rx_buf_size = 16384;
              tx_buf_size = 16384;
              control_interval_min_ns = 200_000;
              cc =
                (if mode = Tas_window_mode then
                   Tas_tcp.Interval_cc.Window_dctcp { mss = 1460 }
                 else Config.default.Config.cc);
            }
          in
          let t = Tas.create sim ~nic:client.Topology.nic ~config () in
          let cores =
            [| Core.create sim ~id:(700 + client.Topology.host_id) () |]
          in
          let lt = Tas.app t ~app_cores:cores ~api:Libtas.Sockets in
          Transport.of_libtas lt ~ctx_of_conn:(fun _ -> 0)
        | Linux_mode ->
          let config =
            { E.default_config with E.rx_buf = 16384; tx_buf = 16384 }
          in
          let engine = E.create sim client.Topology.nic config in
          E.attach engine;
          Transport.of_engine engine)
      net.Topology.clients
  in
  let per_sender = conns / 4 in
  let chunk = Bytes.create 8192 in
  Array.iteri
    (fun i sender ->
      for j = 1 to per_sender do
        let rec push conn = if Transport.send conn chunk > 0 then push conn in
        ignore
          (Sim.schedule sim (((i * per_sender) + j) * 20_000) (fun () ->
               Transport.connect sender
                 ~dst_ip:(Tas_netsim.Nic.ip net.Topology.server.Topology.nic)
                 ~dst_port:5001
                 (fun _ ->
                   {
                     Transport.null_handlers with
                     Transport.on_connected = (fun c -> push c);
                     Transport.on_sendable = (fun c -> push c);
                   })))
      done)
    senders;
  (* Warm up past connection setup and slow start, then record per-conn
     bytes in 100 ms bins. *)
  let samples = Stats.Hist.create () in
  let bins = 6 in
  let setup_ms = 50 + (conns / 40) in
  Sim.run ~until:(Time_ns.ms setup_ms) sim;
  let snapshot () = Hashtbl.fold (fun _ c acc -> (c, !c) :: acc) counters [] in
  for _ = 1 to bins do
    let before = snapshot () in
    Sim.run ~until:(Sim.now sim + Time_ns.ms 100) sim;
    List.iter
      (fun (cell, v0) -> Stats.Hist.add samples (float_of_int (!cell - v0)))
      before
  done;
  {
    median_mb_per_100ms = Stats.Hist.percentile samples 50.0 /. 1e6;
    p99 = Stats.Hist.percentile samples 99.0 /. 1e6;
    p1 = Stats.Hist.percentile samples 1.0 /. 1e6;
    (* 10G for 100 ms among conns. *)
    fair_share = 10e9 /. 8.0 /. 10.0 /. float_of_int conns /. 1e6;
  }

let run_one ~tas ~conns =
  run_one_mode (if tas then Tas_rate_mode else Linux_mode) ~conns

let run ?(quick = false) fmt =
  Report.section fmt
    "Figure 13: per-connection throughput under incast (4 senders, 100ms bins)";
  Report.note fmt
    "paper: TAS tail within 1.6-2.8x of median, median ~= fair share; \
     Linux fluctuates widely with starvation";
  let conn_counts =
    if quick then [ 2000 ] else [ 52; 100; 200; 500; 1000; 2000 ]
  in
  let header =
    [ "conns"; "fair[MB]"; "TAS med"; "TAS p99"; "TAS p1";
      "Linux med"; "Linux p99"; "Linux p1" ]
  in
  let rows =
    List.map
      (fun conns ->
        let t = run_one ~tas:true ~conns in
        let l = run_one ~tas:false ~conns in
        [
          string_of_int conns;
          Printf.sprintf "%.3f" t.fair_share;
          Printf.sprintf "%.3f" t.median_mb_per_100ms;
          Printf.sprintf "%.3f" t.p99;
          Printf.sprintf "%.3f" t.p1;
          Printf.sprintf "%.3f" l.median_mb_per_100ms;
          Printf.sprintf "%.3f" l.p99;
          Printf.sprintf "%.3f" l.p1;
        ])
      conn_counts
  in
  Report.table fmt ~header ~rows
