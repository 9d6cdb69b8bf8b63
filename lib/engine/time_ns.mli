(** Virtual time in integer nanoseconds.

    All simulator clocks are integer nanoseconds since the start of the
    simulation. Using integers keeps event ordering exact and the simulation
    deterministic; 63-bit nanoseconds cover ~292 simulated years. *)

type t = int

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] in seconds as a float. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] in microseconds as a float. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] in milliseconds as a float. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns, us, ms, s). *)
