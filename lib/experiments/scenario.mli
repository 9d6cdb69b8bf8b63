(** Shared experiment scaffolding: build a server of a given stack kind on a
    host NIC, choose the TAS/mTCP core split, attach ideal clients, and
    measure steady-state throughput over a warmup + measurement window. *)

type kind = Tas_ll | Tas_so | Linux | Ix | Mtcp

val kind_name : kind -> string

type server = {
  transport : Tas_apps.Transport.t;
  ip : Tas_proto.Addr.ipv4;
  app_cores : Tas_cpu.Core.t array;
  stack_cores : Tas_cpu.Core.t array;  (** TAS fast-path / mTCP stack cores *)
  tas : Tas_core.Tas.t option;
}

val core_split : kind -> total:int -> app_cycles:int -> int * int
(** [(app_cores, stack_cores)] for a given total budget: balances per-core
    application capacity against stack capacity from the cost profiles —
    reproducing the paper's Table 6 splits. Inline stacks get
    [(total, 0)]. *)

val build_server :
  Tas_engine.Sim.t ->
  nic:Tas_netsim.Nic.t ->
  kind:kind ->
  total_cores:int ->
  ?app_cycles:int ->
  ?buf_size:int ->
  ?tas_patch:(Tas_core.Config.t -> Tas_core.Config.t) ->
  ?split:int * int ->
  ?span:Tas_telemetry.Span.t ->
  ?timeline_ns:int ->
  unit ->
  server
(** [buf_size] sets both per-connection buffer sizes (default 16 KB; shrink
    for 100 K-connection runs). [app_cycles] (default 680) informs the core
    split. [span] attaches a latency-span collector to TAS-kind servers
    (ignored for baseline stacks). [timeline_ns] (default 0 = off) turns on
    the timeline flight recorder at that frame interval for TAS-kind
    servers. *)

val client_transport :
  Tas_engine.Sim.t -> Tas_netsim.Topology.endpoint -> ?buf_size:int -> unit ->
  Tas_apps.Transport.t
(** Ideal (cost-free) client host. *)

val arena_refusals : server -> int
(** Connections the server's flow arena refused (0 on a baseline stack). *)

val measure_rate :
  Tas_engine.Sim.t ->
  warmup:Tas_engine.Time_ns.t ->
  measure:Tas_engine.Time_ns.t ->
  (unit -> int) ->
  float
(** Run warmup, snapshot the counter, run the measurement window, and return
    the rate in events/second. *)
