(** Topology builders for the paper's experimental setups.

    - [point_to_point]: two hosts, one bidirectional link (compatibility and
      loss experiments, Fig. 7 / Table 4);
    - [star]: clients and a server behind one switch with DCTCP-style ECN
      marking (the testbed cluster: 10G client ports, 40G server port,
      marking threshold 65 packets);
    - [fat_tree]: 3-level k-ary fat tree with ECMP and bandwidth
      oversubscription (the large-cluster ns-3 simulation of §5.5, scaled
      down; oversubscription is expressed by slowing uplinks rather than
      removing them, which preserves the ECMP path structure). *)

type link_spec = {
  rate_bps : float;
  delay : Tas_engine.Time_ns.t;
  capacity_pkts : int;
  ecn_threshold : int option;
}

val link_10g : ?ecn_threshold:int -> unit -> link_spec
(** 10 Gbps, 2 µs propagation delay, 1024-packet queue. *)

val link_40g : ?ecn_threshold:int -> unit -> link_spec

type endpoint = {
  nic : Nic.t;
  host_id : int;
  uplink : Port.t;  (** host → network port (for utilization stats) *)
  downlink : Port.t;  (** network → host port *)
}

type point_to_point = {
  a : endpoint;
  b : endpoint;
  fault_ab : Fault.t option;  (** fault stage on the a→b direction *)
  fault_ba : Fault.t option;  (** fault stage on the b→a direction *)
}

val point_to_point :
  Tas_engine.Sim.t ->
  ?spec:link_spec ->
  ?fault_ab:Fault.spec ->
  ?fault_ba:Fault.spec ->
  ?rng:Tas_engine.Rng.t ->
  ?trace:Tas_telemetry.Trace.t ->
  ?queues_per_nic:int ->
  unit ->
  point_to_point
(** Two directly-wired hosts (ids 0 and 1). [fault_ab] / [fault_ba]
    install a fault stage on their direction; symmetric loss passes the
    same spec to both. Any fault requires [rng]; each
    direction draws from an independent split so the two streams do not
    perturb each other. [trace] is handed to the fault stages for
    fault-injection events. *)

type star = {
  switch : Switch.t;
  server : endpoint;
  clients : endpoint array;
}

val star :
  Tas_engine.Sim.t ->
  n_clients:int ->
  ?client_spec:link_spec ->
  ?server_spec:link_spec ->
  ?queues_per_nic:int ->
  unit ->
  star
(** Server is host id 0; clients are ids 1..n. Defaults: clients 10G,
    server 40G, ECN threshold 65 packets on switch ports. *)

type fat_tree = {
  ft_hosts : endpoint array;
  ft_all_ports : Port.t list;  (** every switch port, for queue statistics *)
  ft_core_ports : Port.t list;  (** aggregation→core and core→aggregation *)
}

val fat_tree :
  Tas_engine.Sim.t ->
  k:int ->
  ?queues_per_nic:int ->
  unit ->
  fat_tree
(** [k] must be even; yields [k^3/4] hosts on 10G links with ECN threshold
    65 packets. Uplinks above the edge layer run at a quarter of that rate
    (4:1 oversubscription). *)
