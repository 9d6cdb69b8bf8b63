module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Nic = Tas_netsim.Nic
module Port = Tas_netsim.Port
module Fault = Tas_netsim.Fault
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module Fast_path = Tas_core.Fast_path
module Transport = Tas_apps.Transport
module Pep_relay = Tas_apps.Pep_relay
module Packet = Tas_proto.Packet
module Policy = Tas_recovery.Policy
module J = Tas_telemetry.Json

(* One TAS host on [nic]. Fixed-rate senders isolate loss-recovery
   efficiency from congestion dynamics, as in the Fig. 7 harness. Buffers
   cover the largest grid BDP (94 Mbps x 40 ms RTT ~ 470 KB): a
   window-starved flow leaves spare rate budget that makes go-back-N's
   redundant resends free, measuring buffer starvation instead of
   recovery efficiency. *)
let tas_host ?control_interval_ns ?timeout_intervals sim nic ~policy ~rate_bps
    ~core_base =
  let base =
    {
      Config.default with
      Config.max_fast_path_cores = 2;
      rx_buf_size = 524288;
      tx_buf_size = 524288;
      cc = Tas_tcp.Interval_cc.Fixed_rate;
      initial_rate_bps = rate_bps;
      recovery_policy = policy;
    }
  in
  let config =
    {
      base with
      Config.control_interval_fixed_ns =
        (match control_interval_ns with
        | None -> base.Config.control_interval_fixed_ns
        | some -> some);
      timeout_intervals =
        (match timeout_intervals with
        | None -> base.Config.timeout_intervals
        | Some n -> n);
    }
  in
  let tas = Tas.create sim ~nic ~config () in
  let cores =
    [| Core.create sim ~id:core_base (); Core.create sim ~id:(core_base + 1) () |]
  in
  let lt = Tas.app tas ~app_cores:cores ~api:Libtas.Sockets in
  (tas, Transport.of_libtas lt ~ctx_of_conn:(fun i -> i mod 2))

type shape = Uniform | Bursty

let shape_name = function Uniform -> "uniform" | Bursty -> "bursty"

let fault_of ~shape ~rate =
  match shape with
  | Uniform -> Fault.uniform_loss rate
  | Bursty -> Fault.bursty_of_rate ~rate ~mean_burst_pkts:4.0

(* --- Goodput grid ------------------------------------------------------- *)

(* Bulk goodput of [flows] fixed-rate senders across one lossy link with
   the given one-way delay. Measured over 60..260 ms of virtual time. *)
let goodput ~policy ~delay_ms ~shape ~rate ~flows =
  let sim = Sim.create () in
  let rng = Rng.create 1234 in
  let spec =
    {
      Topology.rate_bps = 10e9;
      delay = Time_ns.ms delay_ms;
      capacity_pkts = 1024;
      ecn_threshold = Some 65;
    }
  in
  let fs = fault_of ~shape ~rate in
  let net =
    Topology.point_to_point sim ~spec ~fault_ab:fs ~fault_ba:fs ~rng
      ~queues_per_nic:8 ()
  in
  let _, sender =
    tas_host sim net.Topology.a.Topology.nic ~policy ~rate_bps:94e6
      ~core_base:500
  in
  let _, receiver =
    tas_host sim net.Topology.b.Topology.nic ~policy ~rate_bps:94e6
      ~core_base:600
  in
  let received = ref 0 in
  Transport.listen receiver ~port:5001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data = (fun _ d -> received := !received + Bytes.length d);
      });
  let chunk = Bytes.create 16384 in
  for _ = 1 to flows do
    let rec push conn = if Transport.send conn chunk > 0 then push conn in
    Transport.connect sender
      ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:5001
      (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_connected = (fun conn -> push conn);
          Transport.on_sendable = (fun conn -> push conn);
        })
  done;
  Sim.run ~until:(Time_ns.ms 60) sim;
  let before = !received in
  Sim.run ~until:(Time_ns.ms 260) sim;
  float_of_int ((!received - before) * 8) /. 0.2 /. 1e9

(* --- Tail loss ---------------------------------------------------------- *)

(* Deterministically swallow the first copy of the segment carrying the
   final byte of a bounded transfer. With nothing behind it, no dup-ACKs
   ever arrive: repairing the tail is purely a timer race — RACK-TLP's
   probe (~2 x srtt) against the slow path's stall rewind (pinned at
   4 x 50 ms here). Returns (completion_ns, tlp_probes). *)
let tail_completion policy =
  let total = 32768 in
  let sim = Sim.create () in
  let spec =
    {
      Topology.rate_bps = 1e9;
      delay = Time_ns.ms 5;
      capacity_pkts = 1024;
      ecn_threshold = None;
    }
  in
  let net = Topology.point_to_point sim ~spec ~queues_per_nic:8 () in
  let seen = ref 0 and dropped = ref false in
  Port.set_deliver net.Topology.a.Topology.uplink (fun pkt ->
      let len = Bytes.length pkt.Packet.payload in
      if len > 0 && (not !dropped) && !seen + len >= total then dropped := true
      else begin
        if len > 0 then seen := !seen + len;
        Nic.input net.Topology.b.Topology.nic pkt
      end);
  let sender_tas, sender =
    tas_host sim net.Topology.a.Topology.nic ~policy ~rate_bps:1e9
      ~core_base:500 ~control_interval_ns:50_000_000 ~timeout_intervals:4
  in
  let _, receiver =
    tas_host sim net.Topology.b.Topology.nic ~policy ~rate_bps:1e9
      ~core_base:600 ~control_interval_ns:50_000_000 ~timeout_intervals:4
  in
  let got = ref 0 and done_at = ref None in
  Transport.listen receiver ~port:9001 (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_data =
          (fun _ d ->
            got := !got + Bytes.length d;
            if !got >= total && !done_at = None then done_at := Some (Sim.now sim));
      });
  Transport.connect sender
    ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:9001
    (fun _ ->
      {
        Transport.null_handlers with
        Transport.on_connected =
          (fun conn -> ignore (Transport.send conn (Bytes.create total)));
      });
  Sim.run ~until:(Time_ns.ms 400) sim;
  let probes =
    (Fast_path.rec_stats (Tas.fast_path sender_tas)).Fast_path.rec_tlp_probes
  in
  (!done_at, probes)

(* --- Split-TCP PEP ------------------------------------------------------ *)

type path_result = {
  completed_at : Time_ns.t option;
  delivered : int;
  pep : Pep_relay.stats option;
}

let pep_conns = 8

let pep_bytes_per_conn = 65536

(* Drive [pep_conns] bounded client transfers to the server and close each
   connection once fully sent. [split = true] puts a PEP host in the
   middle: WAN leg client<->PEP (lossy, 10 ms), LAN leg PEP<->server
   (clean, 2 us); otherwise one end-to-end WAN link with the same fault. *)
let transfer_path ~policy ~split =
  let total = pep_conns * pep_bytes_per_conn in
  let sim = Sim.create () in
  let rng = Rng.create 4242 in
  let wan_spec =
    {
      Topology.rate_bps = 1e9;
      delay = Time_ns.ms 10;
      capacity_pkts = 1024;
      ecn_threshold = None;
    }
  in
  let fs = fault_of ~shape:Bursty ~rate:0.02 in
  let delivered = ref 0 and done_at = ref None in
  let serve transport ~port =
    Transport.listen transport ~port (fun _ ->
        {
          Transport.null_handlers with
          Transport.on_data =
            (fun _ d ->
              delivered := !delivered + Bytes.length d;
              if !delivered >= total && !done_at = None then
                done_at := Some (Sim.now sim));
          on_peer_closed = (fun conn -> Transport.close conn);
        })
  in
  let drive_clients transport ~dst_ip ~dst_port =
    for _ = 1 to pep_conns do
      let sent = ref 0 in
      let push conn =
        let rec go () =
          if !sent < pep_bytes_per_conn then begin
            let n =
              Transport.send conn
                (Bytes.create (min 16384 (pep_bytes_per_conn - !sent)))
            in
            if n > 0 then begin
              sent := !sent + n;
              if !sent >= pep_bytes_per_conn then Transport.close conn
              else go ()
            end
          end
        in
        go ()
      in
      Transport.connect transport ~dst_ip ~dst_port
        (fun _ ->
          {
            Transport.null_handlers with
            Transport.on_connected = push;
            Transport.on_sendable = push;
          })
    done
  in
  let pep =
    if split then begin
      let wan =
        Topology.point_to_point sim ~spec:wan_spec ~fault_ab:fs ~fault_ba:fs
          ~rng ~queues_per_nic:8 ()
      in
      let lan = Topology.point_to_point sim ~queues_per_nic:8 () in
      let _, client =
        tas_host sim wan.Topology.a.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:500
      in
      let _, pep_front =
        tas_host sim wan.Topology.b.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:600
      in
      let _, pep_back =
        tas_host sim lan.Topology.a.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:700
      in
      let _, server =
        tas_host sim lan.Topology.b.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:800
      in
      serve server ~port:5002;
      let stats =
        Pep_relay.attach ~front:pep_front ~listen_port:5001 ~back:pep_back
          ~dst_ip:(Nic.ip lan.Topology.b.Topology.nic) ~dst_port:5002 ()
      in
      drive_clients client
        ~dst_ip:(Nic.ip wan.Topology.b.Topology.nic) ~dst_port:5001;
      Some stats
    end
    else begin
      let net =
        Topology.point_to_point sim ~spec:wan_spec ~fault_ab:fs ~fault_ba:fs
          ~rng ~queues_per_nic:8 ()
      in
      let _, client =
        tas_host sim net.Topology.a.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:500
      in
      let _, server =
        tas_host sim net.Topology.b.Topology.nic ~policy ~rate_bps:1e9
          ~core_base:600
      in
      serve server ~port:5002;
      drive_clients client
        ~dst_ip:(Nic.ip net.Topology.b.Topology.nic) ~dst_port:5002;
      None
    end
  in
  Sim.run ~until:(Time_ns.ms 800) sim;
  { completed_at = !done_at; delivered = !delivered; pep }

(* --- Report ------------------------------------------------------------- *)

let policies = [ Policy.Reno; Policy.Sack; Policy.Rack_tlp ]

let ms_of = function
  | Some t -> Printf.sprintf "%.1f" (Time_ns.to_ms_f t)
  | None -> "DNF"

let run ?(quick = false) fmt =
  Report.section fmt
    "WAN: pluggable loss recovery (reno / sack / rack-tlp) across RTT x \
     loss x burstiness";
  Report.note fmt
    "fixed-rate bulk flows on a 10G link; goodput over 200 ms. SACK must \
     never trail go-back-N; RACK-TLP adds timer-based repair";
  let rtts = if quick then [ 2 ] else [ 2; 10 ] in
  let rates = if quick then [ 0.02 ] else [ 0.005; 0.02 ] in
  let shapes = [ Uniform; Bursty ] in
  let flows = if quick then 20 else 30 in
  let grid_misses = ref 0 in
  let grid_points = ref 0 in
  let grid_json = ref [] in
  let rows =
    List.concat_map
      (fun delay_ms ->
        List.concat_map
          (fun rate ->
            List.map
              (fun shape ->
                let g p = goodput ~policy:p ~delay_ms ~shape ~rate ~flows in
                let reno = g Policy.Reno in
                let sack = g Policy.Sack in
                let rack = g Policy.Rack_tlp in
                let ok = sack >= reno *. 0.99 in
                incr grid_points;
                if not ok then incr grid_misses;
                grid_json :=
                  J.Obj
                    [
                      ("rtt_ms", J.Int (2 * delay_ms));
                      ("loss", J.Float rate);
                      ("shape", J.Str (shape_name shape));
                      ("reno_gbps", J.Float reno);
                      ("sack_gbps", J.Float sack);
                      ("rack_gbps", J.Float rack);
                      ("sack_ge_reno", J.Bool ok);
                    ]
                  :: !grid_json;
                [
                  string_of_int (2 * delay_ms);
                  Printf.sprintf "%.1f%%" (rate *. 100.);
                  shape_name shape;
                  Printf.sprintf "%.3f" reno;
                  Printf.sprintf "%.3f" sack;
                  Printf.sprintf "%.3f" rack;
                  (if ok then "yes" else "NO");
                ])
              shapes)
          rates)
      rtts
  in
  Report.table fmt
    ~header:
      [ "rtt[ms]"; "loss"; "shape"; "reno[Gbps]"; "sack[Gbps]"; "rack[Gbps]";
        "sack>=reno" ]
    ~rows;
  Report.gate fmt ~name:"sack_ge_reno_everywhere" ~ok:(!grid_misses = 0)
    ~observed:
      (Printf.sprintf "%d of %d grid points"
         (!grid_points - !grid_misses)
         !grid_points)
    ~expected:"sack >= 0.99 x reno at every grid point";

  Report.section fmt "Tail loss: deterministic last-segment drop (RTT 10 ms)";
  Report.note fmt
    "no dup-ACKs can repair a lost tail; RACK-TLP's probe timer must beat \
     the stall rewind (200 ms here) for both sack and reno";
  let tails = List.map (fun p -> (p, tail_completion p)) policies in
  Report.table fmt
    ~header:[ "policy"; "completion[ms]"; "tlp probes" ]
    ~rows:
      (List.map
         (fun (p, (t, probes)) ->
           [ Policy.name p; ms_of t; string_of_int probes ])
         tails);
  let t_of p = fst (List.assoc p tails) in
  let probes = snd (List.assoc Policy.Rack_tlp tails) in
  let rack_tail_ok =
    match (t_of Policy.Reno, t_of Policy.Sack, t_of Policy.Rack_tlp) with
    | Some reno, Some sack, Some rack -> rack < reno && rack < sack
    | _ -> false
  in
  Report.gate fmt ~name:"rack_tail_improves" ~ok:(rack_tail_ok && probes > 0)
    ~observed:
      (Printf.sprintf "rack %s ms, sack %s ms, reno %s ms, %d probes"
         (ms_of (t_of Policy.Rack_tlp))
         (ms_of (t_of Policy.Sack))
         (ms_of (t_of Policy.Reno))
         probes)
    ~expected:"rack-tlp strictly fastest on the tail, probes > 0";

  Report.section fmt
    "Split-TCP PEP: client -WAN(10ms, bursty 2%)- pep -LAN- server";
  Report.note fmt
    "the relay terminates WAN connections at the proxy and re-originates \
     them on the LAN leg; gate: byte conservation and clean teardown";
  let e2e = transfer_path ~policy:Policy.Rack_tlp ~split:false in
  let split = transfer_path ~policy:Policy.Rack_tlp ~split:true in
  let pep_stats =
    match split.pep with Some s -> s | None -> assert false
  in
  let total = pep_conns * pep_bytes_per_conn in
  let pep_completed = split.delivered = total in
  let pep_conserved = Pep_relay.conserved pep_stats in
  let pep_clean =
    pep_stats.Pep_relay.active = 0
    && pep_stats.Pep_relay.closed_pairs = pep_stats.Pep_relay.accepted
    && pep_stats.Pep_relay.accepted = pep_conns
  in
  Report.table fmt
    ~header:[ "path"; "completion[ms]"; "delivered[B]" ]
    ~rows:
      [
        [ "end-to-end"; ms_of e2e.completed_at; string_of_int e2e.delivered ];
        [ "pep split"; ms_of split.completed_at; string_of_int split.delivered ];
      ];
  Report.gate fmt ~name:"pep_completed" ~ok:pep_completed
    ~observed:(Printf.sprintf "%d B" split.delivered)
    ~expected:(Printf.sprintf "%d B" total);
  Report.gate fmt ~name:"pep_conservation_violations" ~ok:pep_conserved
    ~observed:
      (Printf.sprintf "c2s %d in, %d out, s2c %d in, %d out"
         pep_stats.Pep_relay.c2s_in pep_stats.Pep_relay.c2s_out
         pep_stats.Pep_relay.s2c_in pep_stats.Pep_relay.s2c_out)
    ~expected:"in = out in both directions";
  Report.gate fmt ~name:"pep_clean_close" ~ok:pep_clean
    ~observed:
      (Printf.sprintf "%d active, %d of %d accepted pairs closed"
         pep_stats.Pep_relay.active pep_stats.Pep_relay.closed_pairs
         pep_stats.Pep_relay.accepted)
    ~expected:(Printf.sprintf "0 active, all %d pairs closed" pep_conns);
  Report.kv fmt "pep: peak relay buffering [B]"
    (string_of_int pep_stats.Pep_relay.peak_buffered);

  Report.attach "wan"
    (J.Obj
       [
         ("grid_points", J.Int !grid_points);
         ("sack_ge_reno_everywhere", J.Bool (!grid_misses = 0));
         ("grid", J.List (List.rev !grid_json));
         ("rack_tail_improves", J.Bool rack_tail_ok);
         ("tlp_probes", J.Int probes);
         ("pep_completed", J.Bool pep_completed);
         ( "pep_conservation_violations",
           J.Int (if pep_conserved then 0 else 1) );
         ("pep_clean_close", J.Bool pep_clean);
         ( "pep_peak_buffered",
           J.Int pep_stats.Pep_relay.peak_buffered );
       ])
