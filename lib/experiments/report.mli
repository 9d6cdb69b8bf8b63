(** Table/series rendering for experiment output, paper-style: each
    experiment prints the series the paper plots, alongside the paper's
    reported values where it states them, so shape agreement is visible at
    a glance.

    Every printing function also mirrors its content into the currently
    open artifact (see {!Artifact}), so the registry can write a structured
    [BENCH_<id>.json] per experiment without per-experiment changes. *)

(** One pass/fail condition of an experiment or of the perf gate, with
    what was measured and what the condition asks for, both as printed. *)
type gate = { name : string; ok : bool; observed : string; expected : string }

(** Structured capture of an experiment's output. The registry opens one
    artifact around each run; nesting is not supported (there is a single
    current artifact). When no artifact is open, printing functions only
    print. *)
module Artifact : sig
  val start : unit -> unit
  val finish : unit -> Tas_telemetry.Json.t * gate list
  (** The items mirrored since [start], in print order, as a JSON array,
      and the gates that failed, in emission order. *)

  val attach : string -> Tas_telemetry.Json.t -> unit
  (** Add a raw named JSON item (e.g. a metrics snapshot) to the open
      artifact. No-op when none is open. *)

  val add_timeline : name:string -> Tas_telemetry.Json.t -> unit
  (** Stage a named timeline document ({!Tas_telemetry.Timeline.to_json})
      for the run's [TIMELINE_<id>.json] artifact — kept out of the BENCH
      body because frames can dwarf the rest of the output. Domain-local
      like the artifact itself. *)

  val take_timelines : unit -> (string * Tas_telemetry.Json.t) list
  (** Drain the staged timelines (registration order), clearing the slot. *)
end

val attach : string -> Tas_telemetry.Json.t -> unit
(** Alias for {!Artifact.attach}. *)

val add_timeline : name:string -> Tas_telemetry.Json.t -> unit
(** Alias for {!Artifact.add_timeline}. *)

val section : Format.formatter -> string -> unit
(** Header naming the paper table/figure being reproduced. *)

val table :
  Format.formatter -> header:string list -> rows:string list list -> unit
(** Fixed-width text table. *)

val series :
  Format.formatter -> name:string -> (string * float) list -> unit
(** One named data series: [(x-label, y)] pairs. *)

val kv : Format.formatter -> string -> string -> unit
(** One "key: value" result line. *)

val gate :
  Format.formatter ->
  name:string ->
  ok:bool ->
  observed:string ->
  expected:string ->
  unit
(** One gate line, mirrored as a [{"gate": {...}}] item. A failing gate is
    also recorded for {!Artifact.finish}, which is how the registry learns
    that a run failed. *)

val note : Format.formatter -> string -> unit

val f1 : float -> string
val f2 : float -> string
val mops : float -> string
(** Millions of operations per second, 2 decimals. *)

val pct : float -> string
