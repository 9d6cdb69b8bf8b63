(** Fig. 4: RPC echo throughput vs. number of client connections on a
    20-core server, for TAS, IX and Linux. *)

val run : ?quick:bool -> Format.formatter -> unit

type point = {
  ops_per_s : float;  (** measured RPC throughput *)
  refusals : int;  (** connections the server's flow arena refused *)
  flows : int;  (** TAS flows established at the end of the window *)
}

val throughput_at :
  Scenario.kind -> conns:int -> total_cores:int -> point
(** One configuration of the figure. A TAS server's flow arena holds
    exactly [conns] records. *)
