(** Process-wide run options shared between the CLI and the experiment
    modules.

    The registry writes [BENCH_<id>.json] artifacts and experiments size
    their trace rings; both consult this module so [tas_run]'s [--bench-dir]
    and [--trace-capacity] flags can override the defaults without
    threading parameters through every experiment entry point. *)

val set_bench_dir : string -> unit

val bench_dir : unit -> string
(** CLI override if set, else [$TAS_BENCH_DIR], else ["."]. *)

val set_trace_capacity : int -> unit

val trace_capacity : default:int -> int
(** CLI override if set, else [default]. *)

val set_pool : Tas_parallel.Domain_pool.t -> unit
(** Install the run's domain pool ([tas_run] builds one from [-j N]). *)

val pool : unit -> Tas_parallel.Domain_pool.t
(** The installed pool (default: one participant, running every batch
    inline). The registry's experiment batch and every fan-out inside an
    experiment (chaos schedules, stats runs) map on it, nesting; the
    deterministic merge keeps their output byte-identical to a serial
    run. *)

val set_timeline_interval_ns : int -> unit
(** Record the CLI's [--interval] timeline sampling override (ns). *)

val timeline_interval_ns : default:int -> int
(** CLI override if set, else [default]. Experiments that record timelines
    consult this for their frame cadence. *)
