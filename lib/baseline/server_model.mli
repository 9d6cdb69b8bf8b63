(** CPU-charged server harness for the comparison stacks.

    Wraps a {!Tcp_engine} with a {!Tas_cpu.Cost_model} profile so that every
    data packet, API crossing and application callback consumes simulated
    CPU time on a specific core — making the server CPU the bottleneck, as
    it is in the paper's testbed.

    Placements model the stacks' architectures:
    - [Inline]: stack processing runs on the application core owning the
      connection (Linux's in-kernel stack; IX's run-to-completion cores).
    - [Split]: stack processing runs on dedicated stack cores and crosses to
      application cores in batches flushed every [batch_flush_us]
      (mTCP's dedicated-stack-thread architecture, whose batching the paper
      blames for milliseconds of queueing delay in §5.4). *)

type t

type placement =
  | Inline
  | Split of { stack_cores : Tas_cpu.Core.t array }

val create :
  Tas_engine.Sim.t ->
  nic:Tas_netsim.Nic.t ->
  config:Tcp_engine.config ->
  profile:Tas_cpu.Cost_model.t ->
  app_cores:Tas_cpu.Core.t array ->
  ?placement:placement ->
  unit ->
  t
(** Default placement [Inline]. The cache the connection state competes
    for is the testbed's 33 MB L3. *)

val engine : t -> Tcp_engine.t

val deliver_to_app : t -> Tcp_engine.conn -> (unit -> unit) -> unit
(** Run an application-bound event on the connection's app core, charging
    the API cost — immediately for [Inline], at the next batch flush for
    [Split]. *)

val charge_app : t -> Tcp_engine.conn -> cycles:int -> (unit -> unit) -> unit
(** Charge application work on the connection's core, then continue. *)

val send : t -> Tcp_engine.conn -> bytes -> int
(** Transmit-side charge + [Tcp_engine.send]. Returns the bytes accepted at
    call time, bounded by the free transmit buffer less the sends still
    queued; those reach the engine once their charge has run ([Inline]) or
    at the next flush ([Split]). *)

val close : t -> Tcp_engine.conn -> unit
(** [Tcp_engine.close] once the connection's queued sends have reached the
    engine: at once when none are queued. *)
