module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Json = Tas_telemetry.Json
module Topology = Tas_netsim.Topology
module Fault = Tas_netsim.Fault
module Nic = Tas_netsim.Nic
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Slow_path = Tas_core.Slow_path
module Fast_path = Tas_core.Fast_path
module Transport = Tas_apps.Transport
module Kv_store = Tas_apps.Kv_store

let ms = Time_ns.ms

(* --- Built-in fault schedules --------------------------------------------- *)

type schedule = { name : string; descr : string; spec : Fault.spec }

let schedules =
  [
    {
      name = "bursty-loss";
      descr = "2% Gilbert-Elliott loss, mean burst 4 pkts";
      spec = Fault.bursty_of_rate ~rate:0.02 ~mean_burst_pkts:4.0;
    };
    {
      name = "corruption";
      descr = "1% corruption (30% header-length, 70% payload-bit)";
      spec =
        {
          Fault.passthrough with
          Fault.corrupt_rate = 0.01;
          corrupt_header_fraction = 0.3;
        };
    };
    {
      name = "dup-reorder";
      descr = "1% duplication + 5% reordering (window 4)";
      spec =
        {
          Fault.passthrough with
          Fault.dup_rate = 0.01;
          reorder =
            Some
              {
                Fault.reorder_rate = 0.05;
                reorder_window = 4;
                max_hold_ns = 100_000;
              };
        };
    };
    {
      name = "flaps";
      descr = "3 link blackouts of 5 ms, 25 ms apart";
      spec =
        {
          Fault.passthrough with
          Fault.blackouts =
            Fault.flaps ~first_ns:(ms 40) ~down_ns:(ms 5) ~up_ns:(ms 25)
              ~count:3;
        };
    };
    {
      name = "hellscape";
      descr = "1% burst loss + dup + corruption + reorder + blackout";
      spec =
        {
          (Fault.bursty_of_rate ~rate:0.01 ~mean_burst_pkts:3.0) with
          Fault.dup_rate = 0.005;
          corrupt_rate = 0.005;
          corrupt_header_fraction = 0.5;
          reorder =
            Some
              {
                Fault.reorder_rate = 0.02;
                reorder_window = 4;
                max_hold_ns = 100_000;
              };
          blackouts = [ (ms 60, ms 63) ];
        };
    };
  ]

(* --- One seeded run -------------------------------------------------------- *)

(* Everything the invariants and the report look at. *)
type outcome = {
  completed : int;  (** requests finished across all connections *)
  conns : int;
  conns_finished : int;  (** completed their full request quota *)
  conns_closed : int;  (** observed a terminal close/failure callback *)
  flows_left : int;  (** flow-table entries remaining on both hosts *)
  ab : Fault.counters;
  ba : Fault.counters;
  held_ab : int;
  held_ba : int;
  csum_a : int;  (** NIC checksum-validation drops (payload corruption) *)
  csum_b : int;
  malformed_a : int;  (** fast-path length-validation drops (header corr.) *)
  malformed_b : int;
  rsts : int;
  fin_exhausted : int;
  reaped : int;
}

let copy_counters c =
  { c with Fault.offered = c.Fault.offered }

(* TAS on both hosts: corruption accounting then reconciles exactly (payload
   corruption is dropped by either NIC's checksum validation, header
   corruption by either fast path's length validation). *)
let tas_host sim endpoint ~core_base =
  let config =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 65536;
      tx_buf_size = 65536;
      dead_flow_timeout_ns = Some (ms 100);
    }
  in
  let t = Tas.create sim ~nic:endpoint.Topology.nic ~config () in
  let cores = Array.init 2 (fun i -> Core.create sim ~id:(core_base + i) ()) in
  let lt = Tas.app t ~app_cores:cores ~api:Libtas.Sockets in
  (t, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))

(* Closed-loop SET workload with explicit connection lifecycle: every
   response is exactly 3 bytes (status + zero value length), so request
   completion is a byte count and needs no stream parser. *)
type cstate = {
  mutable reqs_done : int;
  mutable rx_bytes : int;
  mutable closed_seen : bool;
  mutable close_sent : bool;
}

let run_one ~seed ~quick sched =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let link = Topology.link_10g ~ecn_threshold:65 () in
  let net =
    Topology.point_to_point sim ~spec:link ~fault_ab:sched.spec
      ~fault_ba:sched.spec ~rng ~queues_per_nic:4 ()
  in
  let server_tas, server = tas_host sim net.Topology.a ~core_base:100 in
  let client_tas, client = tas_host sim net.Topology.b ~core_base:200 in
  let _kv = Kv_store.create_server server ~port:11211 ~app_cycles:600 () in
  let n_conns = if quick then 8 else 24 in
  let n_reqs = if quick then 12 else 25 in
  (* Client-side think time stretches the workload across the blackout /
     flap windows (which start at 40 ms); without it the closed loop
     finishes in a few milliseconds and never meets the faults. *)
  let think_ns = if quick then ms 10 else ms 5 in
  let t_cutoff = if quick then ms 160 else ms 250 in
  let t_end = t_cutoff + ms 250 in
  let value = String.make 32 'v' in
  let states = Array.init n_conns (fun _ ->
      { reqs_done = 0; rx_bytes = 0; closed_seen = false; close_sent = false })
  in
  let conns = Array.make n_conns None in
  let completed = ref 0 in
  Array.iteri
    (fun i st ->
      let request =
        Kv_store.encode_request ~op:1
          ~key:(Printf.sprintf "chaos-%04d" i)
          ~value
      in
      let fire conn = ignore (Transport.send conn request) in
      ignore
        (Sim.schedule sim ((i * 50_000) + 1) (fun () ->
             Transport.connect client
               ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:11211
               (fun c ->
                 conns.(i) <- Some c;
                 {
                   Transport.null_handlers with
                   Transport.on_connected = (fun conn -> fire conn);
                   Transport.on_data =
                     (fun conn data ->
                       st.rx_bytes <- st.rx_bytes + Bytes.length data;
                       while st.rx_bytes >= 3 && st.reqs_done < n_reqs do
                         st.rx_bytes <- st.rx_bytes - 3;
                         st.reqs_done <- st.reqs_done + 1;
                         incr completed;
                         if st.reqs_done < n_reqs then
                           ignore
                             (Sim.schedule sim think_ns (fun () -> fire conn))
                         else if not st.close_sent then begin
                           st.close_sent <- true;
                           Transport.close conn
                         end
                       done);
                   Transport.on_closed = (fun _ -> st.closed_seen <- true);
                 }))))
    states;
  (* Cut off stragglers: anything not already closing is closed here and
     must still tear down cleanly (or be force-reaped) before [t_end]. *)
  ignore
    (Sim.schedule sim t_cutoff (fun () ->
         Array.iteri
           (fun i st ->
             match conns.(i) with
             | Some c when (not st.close_sent) && not st.closed_seen ->
               st.close_sent <- true;
               Transport.close c
             | _ -> ())
           states));
  Sim.run ~until:t_end sim;
  (* Drain reorder holds, then let the released packets (and any RSTs they
     provoke) finish before counters are read. *)
  let fab = Option.get net.Topology.fault_ab in
  let fba = Option.get net.Topology.fault_ba in
  Fault.flush fab;
  Fault.flush fba;
  Sim.run ~until:(t_end + ms 50) sim;
  let nic_a = net.Topology.a.Topology.nic in
  let nic_b = net.Topology.b.Topology.nic in
  let sp_stats t =
    let sp = Tas.slow_path t in
    ( Slow_path.rsts_sent sp,
      Slow_path.fin_retry_exhausted sp,
      Slow_path.flows_reaped sp )
  in
  let rsts_a, fin_a, reap_a = sp_stats server_tas in
  let rsts_b, fin_b, reap_b = sp_stats client_tas in
  {
    completed = !completed;
    conns = n_conns;
    conns_finished =
      Array.fold_left
        (fun n st -> if st.reqs_done >= n_reqs then n + 1 else n)
        0 states;
    conns_closed =
      Array.fold_left
        (fun n st -> if st.closed_seen then n + 1 else n)
        0 states;
    flows_left =
      Slow_path.flow_count (Tas.slow_path server_tas)
      + Slow_path.flow_count (Tas.slow_path client_tas);
    ab = copy_counters (Fault.counters fab);
    ba = copy_counters (Fault.counters fba);
    held_ab = Fault.held fab;
    held_ba = Fault.held fba;
    csum_a = Nic.rx_csum_drops nic_a;
    csum_b = Nic.rx_csum_drops nic_b;
    malformed_a = (Fast_path.stats (Tas.fast_path server_tas)).Fast_path.malformed_drops;
    malformed_b = (Fast_path.stats (Tas.fast_path client_tas)).Fast_path.malformed_drops;
    rsts = rsts_a + rsts_b;
    fin_exhausted = fin_a + fin_b;
    reaped = reap_a + reap_b;
  }

(* --- Invariants ------------------------------------------------------------ *)

(* Each invariant is (name, holds?). *)
let invariants o =
  let conserve tag (c : Fault.counters) held =
    ( tag ^ " conservation (fwd = offered - drops + dups - held)",
      c.Fault.forwarded
      = c.Fault.offered - Fault.total_drops c + c.Fault.dups - held )
  in
  [
    conserve "a->b" o.ab o.held_ab;
    conserve "b->a" o.ba o.held_ba;
    ( "payload corruptions all caught by NIC checksum validation",
      o.ab.Fault.payload_corrupts = o.csum_b
      && o.ba.Fault.payload_corrupts = o.csum_a );
    ( "header corruptions all caught by fast-path length validation",
      o.ab.Fault.header_corrupts = o.malformed_b
      && o.ba.Fault.header_corrupts = o.malformed_a );
    ( "every connection completed or failed cleanly",
      o.conns_closed = o.conns );
    ("no flow-table entries leaked", o.flows_left = 0);
  ]

(* --- Experiment ------------------------------------------------------------ *)

let json_of_outcome o =
  let c (x : Fault.counters) =
    Json.Obj
      [
        ("offered", Json.Int x.Fault.offered);
        ("forwarded", Json.Int x.Fault.forwarded);
        ("uniform_drops", Json.Int x.Fault.uniform_drops);
        ("burst_drops", Json.Int x.Fault.burst_drops);
        ("blackout_drops", Json.Int x.Fault.blackout_drops);
        ("dups", Json.Int x.Fault.dups);
        ("payload_corrupts", Json.Int x.Fault.payload_corrupts);
        ("header_corrupts", Json.Int x.Fault.header_corrupts);
        ("reorder_holds", Json.Int x.Fault.reorder_holds);
      ]
  in
  Json.Obj
    [
      ("requests_completed", Json.Int o.completed);
      ("conns", Json.Int o.conns);
      ("conns_finished", Json.Int o.conns_finished);
      ("conns_closed", Json.Int o.conns_closed);
      ("flows_left", Json.Int o.flows_left);
      ("fault_ab", c o.ab);
      ("fault_ba", c o.ba);
      ("nic_csum_drops", Json.Int (o.csum_a + o.csum_b));
      ("fp_malformed_drops", Json.Int (o.malformed_a + o.malformed_b));
      ("rsts_sent", Json.Int o.rsts);
      ("fin_retry_exhausted", Json.Int o.fin_exhausted);
      ("flows_reaped", Json.Int o.reaped);
    ]

(* One schedule's evaluation: one seeded run plus the invariant check.
   Pure with respect to process-global state (its own sim, its own seeded
   RNG), so a batch of schedules can run on any mix of pool domains. *)
let eval_schedule ~seed ~quick sched =
  match run_one ~seed ~quick sched with
  | o -> Ok (o, invariants o)
  | exception exn -> Error exn

let run ?(quick = false) ?only fmt =
  Report.section fmt
    "Chaos: KV workload under seeded fault schedules (TAS on both hosts)";
  Report.note fmt
    "invariants: fault-stage conservation, corruption drops reconcile, \
     every connection terminates cleanly, no flow leaks";
  let seed = 0xC0FFEE in
  let schedules =
    match only with
    | None -> schedules
    | Some names -> List.filter (fun s -> List.mem s.name names) schedules
  in
  (* Schedules are independent seeded simulations: fan them out over the
     run's domain pool. Results come back in submission order, and all
     reporting below happens serially on this domain — output and artifact
     are byte-identical to a serial run. *)
  let evals =
    Tas_parallel.Domain_pool.map (Run_opts.pool ())
      ~f:(eval_schedule ~seed ~quick)
      (Array.of_list schedules)
  in
  let violations = ref 0 in
  let details = ref [] in
  let rows =
    List.map2
      (fun sched result ->
        match result with
        | Ok (o, inv) ->
          let failed = List.filter (fun (_, ok) -> not ok) inv in
          violations := !violations + List.length failed;
          List.iter
            (fun (name, _) ->
              Report.note fmt
                (Printf.sprintf "VIOLATION [%s]: %s" sched.name name))
            failed;
          details :=
            ( sched.name,
              Json.Obj
                [
                  ("descr", Json.Str sched.descr);
                  ("outcome", json_of_outcome o);
                  ("violations", Json.Int (List.length failed));
                  ( "failed_invariants",
                    Json.List (List.map (fun (n, _) -> Json.Str n) failed) );
                ] )
            :: !details;
          [
            sched.name;
            Printf.sprintf "%d/%d" o.conns_finished o.conns;
            string_of_int o.completed;
            string_of_int
              (Fault.total_drops o.ab + Fault.total_drops o.ba);
            string_of_int (o.ab.Fault.dups + o.ba.Fault.dups);
            string_of_int
              (Fault.total_corrupts o.ab + Fault.total_corrupts o.ba);
            string_of_int
              (o.ab.Fault.reorder_holds + o.ba.Fault.reorder_holds);
            string_of_int o.rsts;
            string_of_int o.reaped;
            (if List.length failed = 0 then "ok" else "FAIL");
          ]
        | Error exn ->
          incr violations;
          details :=
            ( sched.name,
              Json.Obj
                [
                  ("descr", Json.Str sched.descr);
                  ("exception", Json.Str (Printexc.to_string exn));
                  ("violations", Json.Int 1);
                ] )
            :: !details;
          [ sched.name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
            "EXCEPTION: " ^ Printexc.to_string exn ])
      schedules (Array.to_list evals)
  in
  Report.table fmt
    ~header:
      [ "schedule"; "conns done"; "reqs"; "drops"; "dups"; "corrupts";
        "holds"; "rsts"; "reaped"; "invariants" ]
    ~rows;
  Report.kv fmt "invariant violations" (string_of_int !violations);
  (* The gate judges the whole schedule set; a subset run reports its
     count without a verdict. *)
  if only = None then
    Report.gate fmt ~name:"violations" ~ok:(!violations = 0)
      ~observed:(string_of_int !violations) ~expected:"0";
  Report.attach "chaos"
    (Json.Obj
       [
         ("seed", Json.Int seed);
         ("violations", Json.Int !violations);
         ("schedules", Json.Obj (List.rev !details));
       ])
