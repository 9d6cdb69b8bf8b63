(** Process-wide run options shared between the CLI and the experiment
    modules.

    The registry writes [BENCH_<id>.json] artifacts into the bench
    directory, and every fan-out maps on the run's domain pool; both
    consult this module so [tas_run]'s [--bench-dir] and [-j] flags reach
    them without threading parameters through every experiment entry
    point. *)

val set_bench_dir : string -> unit

val bench_dir : unit -> string
(** CLI override if set, else [$TAS_BENCH_DIR], else ["."]. *)

val set_pool : Tas_parallel.Domain_pool.t -> unit
(** Install the run's domain pool ([tas_run] builds one from [-j N]). *)

val pool : unit -> Tas_parallel.Domain_pool.t
(** The installed pool (default: one participant, running every batch
    inline). The registry's experiment batch and every fan-out inside an
    experiment (chaos schedules) map on it, nesting; the deterministic
    merge keeps their output byte-identical to a serial run. *)
