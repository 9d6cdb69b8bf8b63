(** Fig. 5: throughput with short-lived connections — 1,024 concurrent
    connections, re-established after a configurable number of RPCs.
    Connection setup/teardown exercises the TAS slow path and its handoffs.
    TAS uses one application core and two fast-path cores (§5.1). *)

val run : ?quick:bool -> Format.formatter -> unit

val throughput_at : Scenario.kind -> rpcs_per_conn:int -> float * int
(** Measured RPC throughput (ops/s) for one configuration, and the
    connections the server's flow arena refused over the run. *)
