(** Hot-path microbenchmarks and the perf-regression gate.

    The benchmark families measure the simulator's packet hot path on the
    host wall clock: bulk TAS<->TAS transfer (packet ops/sec and minor
    words/packet), pipelined small RPCs (RPCs/sec), wire-format round trips
    (ops/sec and minor words/op), sharded flow lookup, the burst receive
    pass, RACK-TLP ACK digestion over a 90-segment flight with one hole
    (ACKs/sec and minor words/ACK), TAS<->TAS connection churn
    (connect + one RPC + close cycles/sec, and minor and major words per
    connection), and simulator event churn (events/sec and minor
    words/event). Each run records them in [BENCH_perf.json] under
    ["metrics"].

    The gate compares a run against a committed baseline artifact
    ([bench/baseline_perf.json], itself a saved [BENCH_perf.json]) with
    per-kind tolerance bands: generous for wall-clock throughput (machine
    dependent), exact for allocations per operation, which are
    deterministic for a given build and mode ([--quick] or not). A build
    from another compiler version may allocate differently and then needs
    a regenerated baseline. *)

type kind = Throughput | Alloc

type metric = { name : string; value : float; units : string; kind : kind }

val measure : quick:bool -> metric list
(** Run all benchmark families. *)

val default_tol_throughput : float
(** 0.75: a throughput metric fails only below 25% of baseline. *)

val default_tol_alloc : float
(** 0.0: an allocation metric fails when it moves at all, up or down (up
    to the artifact's 12 printed digits). *)

val check :
  ?tol_throughput:float ->
  ?tol_alloc:float ->
  ?quick:bool ->
  baseline:Tas_telemetry.Json.t ->
  metric list ->
  Report.gate list
(** Gate [current] metrics against a baseline artifact's ["metrics"]
    object, one gate per metric named after it. Metrics absent from the
    baseline are not gated, and neither are allocation metrics when [quick]
    is given and differs from the baseline's ["quick"] flag (the windows
    differ between modes). *)

val load_baseline : string -> Tas_telemetry.Json.t
(** Read and parse a baseline artifact.
    @raise Sys_error on unreadable files.
    @raise Tas_telemetry.Json.Parse_error on malformed content. *)

val check_file :
  quick:bool -> baseline:string -> metric list -> Report.gate list
(** {!check} against the baseline artifact at path [baseline]. Fails
    closed: an unreadable or malformed file, or one that gates none of
    [current], yields a single failing gate named ["baseline"] that names
    the path. *)

val run : ?quick:bool -> ?baseline:string -> Format.formatter -> bool
(** Measure after one discarded warmup pass, print the table, write
    [BENCH_perf.json] into the bench dir, and — when [baseline] is given —
    print one line per gate of {!check_file}. Returns [false] iff a gate
    failed. *)
