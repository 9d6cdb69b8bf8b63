module Sim = Tas_engine.Sim
module Time_ns = Tas_engine.Time_ns
module Addr = Tas_proto.Addr

type link_spec = {
  rate_bps : float;
  delay : Time_ns.t;
  capacity_pkts : int;
  ecn_threshold : int option;
}

let link_10g ?ecn_threshold () =
  { rate_bps = 10e9; delay = Time_ns.us 2; capacity_pkts = 1024; ecn_threshold }

let link_40g ?ecn_threshold () =
  { rate_bps = 40e9; delay = Time_ns.us 2; capacity_pkts = 1024; ecn_threshold }

type endpoint = {
  nic : Nic.t;
  host_id : int;
  uplink : Port.t;
  downlink : Port.t;
}

type point_to_point = {
  a : endpoint;
  b : endpoint;
  fault_ab : Fault.t option;
  fault_ba : Fault.t option;
}

let make_port sim spec =
  Port.create sim ~rate_bps:spec.rate_bps ~delay:spec.delay
    ~capacity_pkts:spec.capacity_pkts ?ecn_threshold:spec.ecn_threshold ()

let make_endpoint sim ~host_id ~queues ~uplink ~downlink =
  let nic =
    Nic.create sim ~ip:(Addr.host_ip host_id) ~mac:(Addr.host_mac host_id)
      ~num_queues:queues ~tx_port:uplink ()
  in
  Port.set_deliver downlink (fun pkt -> Nic.input nic pkt);
  { nic; host_id; uplink; downlink }

let point_to_point sim ?(spec = link_10g ()) ?fault_ab ?fault_ba ?rng ?trace
    ?(queues_per_nic = 4) () =
  let a_to_b = make_port sim spec in
  let b_to_a = make_port sim spec in
  let a = make_endpoint sim ~host_id:0 ~queues:queues_per_nic ~uplink:a_to_b ~downlink:b_to_a in
  let b = make_endpoint sim ~host_id:1 ~queues:queues_per_nic ~uplink:b_to_a ~downlink:a_to_b in
  let install fault_spec deliver port =
    match fault_spec with
    | None -> None
    | Some fs ->
        let rng =
          match rng with
          | Some r -> r
          | None -> invalid_arg "Topology.point_to_point: faults need an rng"
        in
        let stage = Fault.create ?trace sim (Tas_engine.Rng.split rng) fs in
        Port.set_deliver port (Fault.wrap stage deliver);
        Some stage
  in
  let fault_ab = install fault_ab (fun p -> Nic.input b.nic p) a_to_b in
  let fault_ba = install fault_ba (fun p -> Nic.input a.nic p) b_to_a in
  { a; b; fault_ab; fault_ba }

type star = {
  switch : Switch.t;
  server : endpoint;
  clients : endpoint array;
}

(* Attach a host to a switch: one port on the switch toward the host, and
   the host NIC's egress delivering into the switch. *)
let attach_host sim switch ~spec ~host_id ~queues =
  let downlink = make_port sim spec in
  let uplink = make_port sim spec in
  Port.set_deliver uplink (fun pkt -> Switch.input switch pkt);
  let ep = make_endpoint sim ~host_id ~queues ~uplink ~downlink in
  let port_id = Switch.add_port switch downlink in
  Switch.add_route switch (Nic.ip ep.nic) port_id;
  ep

let star sim ~n_clients ?client_spec ?server_spec ?(queues_per_nic = 16) () =
  let client_spec =
    match client_spec with Some s -> s | None -> link_10g ~ecn_threshold:65 ()
  in
  let server_spec =
    match server_spec with Some s -> s | None -> link_40g ~ecn_threshold:65 ()
  in
  let switch = Switch.create sim in
  let server = attach_host sim switch ~spec:server_spec ~host_id:0 ~queues:queues_per_nic in
  let clients =
    Array.init n_clients (fun i ->
        attach_host sim switch ~spec:client_spec ~host_id:(i + 1)
          ~queues:queues_per_nic)
  in
  { switch; server; clients }

type fat_tree = {
  ft_hosts : endpoint array;
  ft_all_ports : Port.t list;
  ft_core_ports : Port.t list;
}

let oversubscription = 4.0

let fat_tree sim ~k ?(queues_per_nic = 4) () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even";
  let host_spec = link_10g ~ecn_threshold:65 () in
  let uplink_spec =
    { host_spec with rate_bps = host_spec.rate_bps /. oversubscription }
  in
  let half = k / 2 in
  let n_hosts = k * half * half in
  let all_ports = ref [] and core_ports = ref [] in
  (* Switch layers: per pod, [half] edge and [half] aggregation switches;
     globally [half*half] core switches. *)
  let edge = Array.init k (fun _ -> Array.init half (fun _ -> Switch.create sim)) in
  let agg = Array.init k (fun _ -> Array.init half (fun _ -> Switch.create sim)) in
  let core = Array.init (half * half) (fun _ -> Switch.create sim) in
  (* Connect two switches with a bidirectional pair of ports; returns the
     port ids on each side. *)
  let connect sw_a sw_b spec =
    let a_to_b = make_port sim spec and b_to_a = make_port sim spec in
    Port.set_deliver a_to_b (fun pkt -> Switch.input sw_b pkt);
    Port.set_deliver b_to_a (fun pkt -> Switch.input sw_a pkt);
    all_ports := a_to_b :: b_to_a :: !all_ports;
    (Switch.add_port sw_a a_to_b, Switch.add_port sw_b b_to_a)
  in
  (* Hosts: pod p, edge e, slot s -> host id p*half*half + e*half + s.
     [attach_host] installs the exact route for each host on its own edge
     switch. *)
  let hosts = Array.make n_hosts None in
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for s = 0 to half - 1 do
        let host_id = (p * half * half) + (e * half) + s in
        let ep = attach_host sim edge.(p).(e) ~spec:host_spec ~host_id ~queues:queues_per_nic in
        all_ports := ep.downlink :: !all_ports;
        hosts.(host_id) <- Some ep
      done
    done
  done;
  (* Edge <-> aggregation links within each pod. *)
  let edge_up = Array.init k (fun _ -> Array.make_matrix half half (0, 0)) in
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        edge_up.(p).(e).(a) <- connect edge.(p).(e) agg.(p).(a) uplink_spec
      done
    done
  done;
  (* Aggregation <-> core links: agg a of each pod connects to cores
     [a*half .. a*half+half-1]. *)
  let agg_up = Array.init k (fun _ -> Array.make_matrix half half (0, 0)) in
  for p = 0 to k - 1 do
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        let core_id = (a * half) + c in
        let ids = connect agg.(p).(a) core.(core_id) uplink_spec in
        agg_up.(p).(a).(c) <- ids;
        (* Track core-layer ports for utilization measurements. *)
        let pa, pc = ids in
        core_ports := Switch.port agg.(p).(a) pa :: Switch.port core.(core_id) pc :: !core_ports
      done
    done
  done;
  (* Routing. For every destination host (pod pd, edge ed, slot sd): *)
  let host_ip id = Addr.host_ip id in
  for pd = 0 to k - 1 do
    for ed = 0 to half - 1 do
      for sd = 0 to half - 1 do
        let dst = (pd * half * half) + (ed * half) + sd in
        let ip = host_ip dst in
        ignore sd;
        (* Edge switches: the destination's own edge switch already has the
           exact host route from [attach_host]; all others go up via ECMP. *)
        for p = 0 to k - 1 do
          for e = 0 to half - 1 do
            if not (p = pd && e = ed) then
              Switch.add_ecmp_route edge.(p).(e) ip
                (List.init half (fun a -> fst edge_up.(p).(e).(a)))
          done
        done;
        (* Aggregation switches. *)
        for p = 0 to k - 1 do
          for a = 0 to half - 1 do
            if p = pd then
              Switch.add_route agg.(p).(a) ip (snd edge_up.(p).(ed).(a))
            else
              Switch.add_ecmp_route agg.(p).(a) ip
                (List.init half (fun c -> fst agg_up.(p).(a).(c)))
          done
        done;
        (* Core switches: core (a*half + c) port to pod p is the one created
           when pod p connected; its id equals p because ports are added in
           pod order. *)
        for a = 0 to half - 1 do
          for c = 0 to half - 1 do
            let core_id = (a * half) + c in
            ignore core_id;
            Switch.add_route core.(core_id) ip (snd agg_up.(pd).(a).(c))
          done
        done
      done
    done
  done;
  (* host_port entries were registered in attach_host; record them. *)
  let hosts =
    Array.map
      (function Some ep -> ep | None -> assert false)
      hosts
  in
  { ft_hosts = hosts; ft_all_ports = !all_ports; ft_core_ports = !core_ports }
