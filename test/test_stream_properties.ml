(* Randomized end-to-end stream properties: under arbitrary combinations of
   loss, reordering and duplication, TCP (both the baseline engine and TAS)
   must deliver exactly the bytes that were sent, in order, exactly once. *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Rng = Tas_engine.Rng
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Nic = Tas_netsim.Nic
module Fault = Tas_netsim.Fault
module Config = Tas_core.Config
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module E = Tas_baseline.Tcp_engine

type net_fault = {
  loss : float;
  reorder_rate : float;
  reorder_delay_us : int;
  dup_every : int;  (* 0 = no duplication *)
}

let apply_faults sim rng fault deliver =
  let count = ref 0 in
  let with_dup pkt =
    incr count;
    let dup = fault.dup_every > 0 && !count mod fault.dup_every = 0 in
    (* Each delivery hands on one reference. *)
    if dup then Tas_proto.Packet.retain pkt;
    deliver pkt;
    if dup then deliver pkt
  in
  let spec =
    {
      Fault.passthrough with
      Fault.uniform_loss = fault.loss;
      reorder =
        (if fault.reorder_rate > 0.0 then
           Some
             { Fault.reorder_rate = fault.reorder_rate;
               reorder_window = 4;
               max_hold_ns = fault.reorder_delay_us * 1000 }
         else None);
    }
  in
  Fault.wrap (Fault.create sim rng spec) with_dup

(* Send [n] bytes from an engine client into a server of the given kind
   through a faulty link; return delivered bytes. *)
let run_stream ~tas_receiver ~fault ~seed ~n =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in
  let received = Buffer.create n in
  (* Receiver on host a. *)
  if tas_receiver then begin
    let t =
      Tas.create sim ~nic:net.Topology.a.Topology.nic ~config:Config.default ()
    in
    let lt =
      Tas.app t ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
    in
    Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
        {
          Libtas.null_handlers with
          Libtas.on_data = (fun _ d -> Buffer.add_bytes received d);
        })
  end
  else begin
    let engine = E.create sim net.Topology.a.Topology.nic E.default_config in
    E.attach engine;
    E.listen engine ~port:7 (fun _ ->
        {
          E.null_callbacks with
          E.on_receive = (fun _ d -> Buffer.add_bytes received d);
        })
  end;
  (* Fault injection on the client -> server direction. *)
  Port.set_deliver net.Topology.b.Topology.uplink
    (apply_faults sim (Rng.split rng) fault (fun p ->
         Nic.input net.Topology.a.Topology.nic p));
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;
  let payload = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
  let sent = ref 0 in
  let push c =
    while
      !sent < n
      &&
      let k = E.send c (Bytes.sub payload !sent (min 4096 (n - !sent))) in
      sent := !sent + k;
      k > 0
    do
      ()
    done
  in
  ignore
    (E.connect client ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> push c);
         E.on_sendable = (fun c _ -> push c);
       });
  Sim.run ~until:(Time_ns.sec 60) sim;
  (payload, Buffer.to_bytes received)

let fault_gen =
  QCheck.Gen.(
    let* loss = oneofl [ 0.0; 0.005; 0.02 ] in
    let* reorder_rate = oneofl [ 0.0; 0.05; 0.15 ] in
    let* reorder_delay_us = int_range 10 200 in
    let* dup_every = oneofl [ 0; 7; 23 ] in
    return { loss; reorder_rate; reorder_delay_us; dup_every })

let print_fault f =
  Printf.sprintf "loss=%.3f reorder=%.2f/%dus dup=%d" f.loss f.reorder_rate
    f.reorder_delay_us f.dup_every

let prop_engine_stream_exact =
  QCheck.Test.make ~name:"engine delivers exact stream under any faults"
    ~count:12
    (QCheck.make ~print:(fun (f, s) -> print_fault f ^ " seed=" ^ string_of_int s)
       QCheck.Gen.(pair fault_gen (int_bound 10_000)))
    (fun (fault, seed) ->
      let payload, got = run_stream ~tas_receiver:false ~fault ~seed ~n:60_000 in
      Bytes.equal payload got)

let prop_tas_stream_exact =
  QCheck.Test.make ~name:"TAS delivers exact stream under any faults"
    ~count:12
    (QCheck.make ~print:(fun (f, s) -> print_fault f ^ " seed=" ^ string_of_int s)
       QCheck.Gen.(pair fault_gen (int_bound 10_000)))
    (fun (fault, seed) ->
      let payload, got = run_stream ~tas_receiver:true ~fault ~seed ~n:60_000 in
      Bytes.equal payload got)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engine_stream_exact;
    QCheck_alcotest.to_alcotest prop_tas_stream_exact;
  ]
