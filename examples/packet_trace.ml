(* Packet tracing demo: tcpdump + latency spans for the simulator. Watch
   the three-way handshake, data exchange, ACK generation and FIN teardown
   between a legacy TCP client and a TAS host on the wire; then introspect
   the TAS flow table (ss -ti style and as JSON), decompose per-packet
   latency into per-hop spans, and export the capture as a pcap file.

   Run with:  dune exec examples/packet_trace.exe *)

module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Stats = Tas_engine.Stats
module Core = Tas_cpu.Core
module Topology = Tas_netsim.Topology
module Port = Tas_netsim.Port
module Nic = Tas_netsim.Nic
module Tap = Tas_netsim.Tap
module Pcap = Tas_netsim.Pcap
module Packet = Tas_proto.Packet
module Span = Tas_telemetry.Span
module Json = Tas_telemetry.Json
module Tas = Tas_core.Tas
module Libtas = Tas_core.Libtas
module E = Tas_baseline.Tcp_engine

let () =
  let sim = Sim.create () in
  let net = Topology.point_to_point sim ~queues_per_nic:4 () in

  (* Span collector sampling every packet origin, wired into the TAS
     instance, both NICs (RX-origin, so client-sent packets get spans too)
     and both directions of the wire. *)
  let span = Span.create ~enabled:true ~sample_every:1 ~capacity:4096 () in
  List.iter
    (fun ep ->
      Nic.set_span ~origin:true ep.Topology.nic span;
      Port.set_span ep.Topology.uplink span)
    [ net.Topology.a; net.Topology.b ];

  let tas =
    Tas.create sim ~nic:net.Topology.a.Topology.nic
      ~config:Tas_core.Config.default ~span ()
  in
  let lt =
    Tas.app tas ~app_cores:[| Core.create sim ~id:100 () |] ~api:Libtas.Sockets
  in
  Libtas.listen lt ~port:7 ~ctx_of_tuple:(fun _ -> 0) (fun _ ->
      {
        Libtas.null_handlers with
        Libtas.on_data = (fun sock d -> ignore (Libtas.send sock d));
        Libtas.on_peer_closed = (fun sock -> Libtas.close sock);
      });
  let client = E.create sim net.Topology.b.Topology.nic E.default_config in
  E.attach client;

  (* Tap both directions of the wire. *)
  let trace = Tap.create () in
  Port.set_deliver net.Topology.b.Topology.uplink
    (Tap.wrap trace sim (fun p -> Nic.input net.Topology.a.Topology.nic p));
  Port.set_deliver net.Topology.a.Topology.uplink
    (Tap.wrap trace sim (fun p -> Nic.input net.Topology.b.Topology.nic p));

  let done_rpcs = ref 0 in
  ignore
    (E.connect client ~dst_ip:(Nic.ip net.Topology.a.Topology.nic) ~dst_port:7
       {
         E.null_callbacks with
         E.on_connected = (fun c -> ignore (E.send c (Bytes.make 64 'a')));
         E.on_receive =
           (fun c _ ->
             incr done_rpcs;
             if !done_rpcs < 2 then ignore (E.send c (Bytes.make 64 'b'))
             else E.close c);
       });

  (* Snapshot flow state mid-connection, before the FIN teardown empties
     the table. *)
  let mid_flows = ref "" and mid_text = ref "" in
  ignore
    (Sim.schedule sim (Time_ns.us 50) (fun () ->
         mid_flows := Json.to_string ~pretty:true (Tas.flows tas);
         mid_text := Format.asprintf "%a" Tas.pp_flows tas));
  Sim.run ~until:(Time_ns.ms 50) sim;

  print_endline "Wire trace (host 10.0.0.0 = TAS, 10.0.0.1 = legacy client):\n";
  (* Filter the dump to the RPC connection's 4-tuple — both directions —
     exactly like a tcpdump host/port filter. *)
  let tuple =
    match Tap.records trace with
    | r :: _ -> Packet.four_tuple_at_receiver r.Tap.pkt
    | [] -> failwith "no packets captured"
  in
  Tap.dump ~tuple Format.std_formatter trace;
  Format.print_flush ();
  Printf.printf "\n%d packets total (%d on the filtered connection).\n"
    (Tap.count trace)
    (List.length (Tap.matching_tuple trace tuple));

  (* Export the same (filtered) capture as a pcap file for wireshark. *)
  let pcap_path =
    Filename.concat (Filename.get_temp_dir_name ()) "packet_trace.pcap"
  in
  Pcap.write_tap pcap_path ~tuple trace;
  Printf.printf "# artifact: %s (open in wireshark/tcpdump)\n\n" pcap_path;

  (* Flow-state introspection: the paper's Table-3 record, ss-style and as
     JSON (the [flows] item of BENCH_dg.json). *)
  print_endline "TAS flow table mid-connection (ss -ti style):";
  print_string !mid_text;
  print_endline "\nSame state as JSON (paper Table 3 fields):";
  print_endline !mid_flows;

  (* Per-hop latency decomposition from the span collector. *)
  let b = Span.breakdown (Span.drain span) in
  Printf.printf "\nPer-hop latency over %d spans:\n" b.Span.spans;
  List.iter
    (fun s ->
      let h = s.Span.seg_hist in
      Printf.printf "  %-24s count %-4d mean %6.2fus  p99 %6.2fus\n"
        (Span.hop_name s.Span.seg_from ^ "->" ^ Span.hop_name s.Span.seg_to)
        (Stats.Hist.count h)
        (Stats.Hist.mean h /. 1e3)
        (Stats.Hist.percentile h 99. /. 1e3))
    b.Span.segments;
  if Stats.Hist.count b.Span.end_to_end > 0 then
    Printf.printf "  %-24s count %-4d mean %6.2fus  p99 %6.2fus\n" "end-to-end"
      (Stats.Hist.count b.Span.end_to_end)
      (Stats.Hist.mean b.Span.end_to_end /. 1e3)
      (Stats.Hist.percentile b.Span.end_to_end 99. /. 1e3);

  Format.printf "@.TAS state at the end:@.%a@." Tas.pp_snapshot
    (Tas.snapshot tas)
