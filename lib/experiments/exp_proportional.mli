(** Figs. 14/15: workload proportionality — the slow path grows and shrinks
    the fast-path core set as offered load changes, with only a transient
    latency blip at each transition.

    Time is compressed relative to the paper (client phases of 200 ms
    instead of 10 s, scaling checks every 10 ms instead of ~500 ms) so the
    experiment fits a discrete-event budget; the controller dynamics are
    otherwise identical. Fast-path per-packet costs are scaled up so a
    single core saturates within the simulated load range, which the paper
    achieves with a full 40G load instead. *)

type sample = { t_ms : float; cores : int; mops : float; latency_us : float }

val run_trace : ?phases:int -> unit -> sample list
val fig14 : ?quick:bool -> Format.formatter -> unit
val fig15 : ?quick:bool -> Format.formatter -> unit
