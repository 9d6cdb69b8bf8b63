(** "tl": timeline flight-recorder validation — a ramp + flash-crowd +
    trough RPC schedule recorded at 1 ms frames, checking health-watchdog
    silence on the clean baseline and retransmit-storm detection under
    injected loss + a link blackout, and that per-core utilization tracks
    the load shape. The baseline and chaos runs map over {!Run_opts.pool}
    and merge in submission order, so the report, artifact and
    [TIMELINE_tl.json] are byte-identical to a serial run. *)

val run : ?quick:bool -> Format.formatter -> unit
