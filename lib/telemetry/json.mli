(** Minimal JSON document type and deterministic serializer.

    Hand-rolled (no external dependency): the exporters need emission and
    the artifact readers a small parser. Serialization is deterministic:
    field order is the construction order, floats render via a fixed
    format, and non-finite floats become [null]. Determinism matters — the
    byte-identical telemetry snapshots of two same-seed runs are a test
    invariant. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [to_string t] is the compact encoding; [~pretty:true] indents with two
    spaces for human-readable artifact files. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a JSON document (the dual of {!to_string}; reads TIMELINE_*
    artifacts back for [tas_run timeline], and [BENCHMARK.json] and result
    files for [benchmark/main.exe compare]). Integral numbers parse as
    [Int], others as [Float].
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first field named [key]; [None] for
    missing keys and non-objects. *)

val to_float_opt : t -> float option
(** Numeric coercion: [Int] and [Float] yield the value, everything else
    [None]. *)
