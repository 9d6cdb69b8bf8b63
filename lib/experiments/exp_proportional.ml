module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Transport = Tas_apps.Transport
module Rpc_echo = Tas_apps.Rpc_echo

type sample = { t_ms : float; cores : int; mops : float; latency_us : float }

(* Echo server on TAS with dynamic scaling; one client machine joins (and
   later leaves) per phase, each adding a slab of closed-loop load. *)
let phase_ms = 200

let run_trace ?(phases = 5) () =
  let sim = Sim.create () in
  let n_clients = phases in
  let net = Topology.star sim ~n_clients ~queues_per_nic:16 () in
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 10;
      autoscale =
        Some
          {
            Config.policy = Tas_control.Policy.paper_default;
            check_interval_ns = Time_ns.ms 10;
          };
      idle_block_ns = Time_ns.ms 1;
      rx_buf_size = 4096;
      tx_buf_size = 4096;
      control_interval_min_ns = 500_000;
      (* Inflated fast-path costs so cores saturate at laptop-scale load
         (see mli). One core then handles ~210 kOps. *)
      fp_driver_cycles = 300;
      fp_rx_cycles = 4500;
      fp_tx_cycles = 2600;
      fp_ack_rx_cycles = 1000;
    }
  in
  let tas = Tas.create sim ~nic:net.Topology.server.Topology.nic ~config () in
  let app_cores = Array.init 4 (fun i -> Core.create sim ~id:(900 + i) ()) in
  let lt = Tas.app tas ~app_cores ~api:Libtas.Sockets in
  let transport = Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 4) in
  Rpc_echo.server transport ~port:7 ~msg_size:64 ~app_cycles:300;
  let stats = Rpc_echo.make_stats () in
  (* Each phase: one client machine with 150 connections (~150-200 kOps). *)
  let conns_per_phase = 150 in
  (* Client machine i joins at phase i+1 and leaves symmetrically on the
     way down (paper: one machine added every 10 s, then removed). *)
  Array.iteri
    (fun i client ->
      let ct = Scenario.client_transport sim client ~buf_size:4096 () in
      Rpc_echo.closed_loop_clients sim ct ~n:conns_per_phase
        ~dst_ip:(Tas_netsim.Nic.ip net.Topology.server.Topology.nic)
        ~dst_port:7 ~msg_size:64 ~stagger_ns:10_000
        ~start_at:(Time_ns.ms ((i + 1) * phase_ms))
        ~stop_at:(Time_ns.ms (((2 * phases) + 1 - i) * phase_ms))
        ~think_ns:600_000 ~stats ())
    net.Topology.clients;
  (* Sampling. *)
  let samples = ref [] in
  let last_completed = ref 0 in
  let last_lat_count = ref 0 and last_lat_total = ref 0.0 in
  let sample_interval_ms = 10 in
  Sim.periodic sim (Time_ns.ms sample_interval_ms) (fun () ->
      let completed = Stats.Counter.value stats.Rpc_echo.completed in
      let delta = completed - !last_completed in
      last_completed := completed;
      (* Windowed mean latency from histogram deltas. *)
      let h = stats.Rpc_echo.latency_us in
      let count = Stats.Hist.count h in
      let total = Stats.Hist.mean h *. float_of_int count in
      let lat =
        if count > !last_lat_count then
          (total -. !last_lat_total) /. float_of_int (count - !last_lat_count)
        else 0.0
      in
      last_lat_count := count;
      last_lat_total := total;
      samples :=
        {
          t_ms = Time_ns.to_ms_f (Sim.now sim);
          cores = Tas_core.Fast_path.active_cores (Tas.fast_path tas);
          mops =
            float_of_int delta
            /. (float_of_int sample_interval_ms /. 1000.0)
            /. 1e6;
          latency_us = lat;
        }
        :: !samples);
  Sim.run ~until:(Time_ns.ms (((2 * phases) + 2) * phase_ms)) sim;
  List.rev !samples

let fig14 ?(quick = false) fmt =
  Report.section fmt
    "Figure 14: fast-path cores and throughput as load ramps up \
     (time-compressed: 200ms phases)";
  Report.note fmt
    "paper: cores ramp 1 -> 9 as five client machines join, then back down; \
     throughput follows load";
  let phases = if quick then 3 else 5 in
  let samples = run_trace ~phases () in
  (* Print one row per 50 ms. *)
  let header = [ "t[ms]"; "cores"; "throughput[mOps]" ] in
  let rows =
    List.filter_map
      (fun s ->
        if int_of_float s.t_ms mod 50 = 0 then
          Some
            [ Report.f1 s.t_ms; string_of_int s.cores; Report.f2 s.mops ]
        else None)
      samples
  in
  Report.table fmt ~header ~rows

let fig15 ?(quick = false) fmt =
  Report.section fmt
    "Figure 15: latency across a core-count transition";
  Report.note fmt
    "paper: ~30% median latency blip during core addition, then back to \
     baseline";
  let phases = if quick then 3 else 5 in
  let samples = run_trace ~phases () in
  (* Find the first transition from 2 to more cores and print around it. *)
  let rec find_transition prev = function
    | [] -> None
    | s :: rest ->
      if s.cores > prev && prev >= 2 then Some s.t_ms
      else find_transition s.cores rest
  in
  match find_transition 1 samples with
  | None -> Report.note fmt "no multi-core transition observed"
  | Some t0 ->
    let header = [ "t[ms]"; "cores"; "median latency[us]" ] in
    let rows =
      List.filter_map
        (fun s ->
          if s.t_ms >= t0 -. 60.0 && s.t_ms <= t0 +. 60.0 then
            Some
              [
                Report.f1 s.t_ms; string_of_int s.cores;
                Report.f1 s.latency_us;
              ]
          else None)
        samples
    in
    Report.table fmt ~header ~rows
