(** Experiment registry: every paper table and figure, addressable by id. *)

type entry = {
  id : string;  (** e.g. "f4", "t1" *)
  title : string;
  run : ?quick:bool -> Format.formatter -> unit;
}

val all : entry list
val find : string -> entry option

val run_selection :
  ?quick:bool -> entry list -> Format.formatter -> (entry * Report.gate) list
(** Run a list of experiments, one [BENCH_<id>.json] each, and return the
    gates ({!Report.gate}) that failed, in submission order. The
    experiments run on {!Run_opts.pool} (serial unless a larger pool is
    installed); outputs and artifacts are merged in submission order, so
    everything except each artifact's trailing ["timing"] object is
    byte-identical to a serial run. Each artifact's ["timing"] records the
    job's own wall-clock ([elapsed_s]) and the batch's [jobs],
    [run_wall_s], [serial_estimate_s] (sum of per-job wall-clocks) and
    [speedup]. *)

val run_all :
  ?quick:bool -> Format.formatter -> (entry * Report.gate) list
(** {!run_selection} over {!all}. *)
