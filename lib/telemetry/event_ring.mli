(** Fixed-capacity struct-of-arrays event ring: the one store behind the
    {!Trace} and {!Span} rings.

    An event is five ints: a sim timestamp, an event code (the producer's
    kind or hop index), a span id, a core id and a flow id. Each field lives
    in its own [int array] column, so a push writes five unboxed ints and a
    warm ring allocates nothing per event. When the ring is full, the new
    event is dropped and counted — the ring never blocks or grows, so
    telemetry never perturbs the simulation. Events drain in record order. *)

type t

val create : int -> t
(** [create capacity]. @raise Invalid_argument if not positive. *)

val capacity : t -> int
val length : t -> int

val push : t -> ts:int -> code:int -> id:int -> core:int -> flow:int -> bool
(** Append one event; [false] (and the event counted as dropped) when the
    ring is full. O(1), allocation-free. *)

val recorded : t -> int
(** Events offered to {!push} (accepted + dropped). *)

val dropped : t -> int
(** Events discarded because the ring was full. *)

type 'a reader = ts:int -> code:int -> id:int -> core:int -> flow:int -> 'a
(** Builds a consumer's value from one event's five fields. *)

val peek : t -> 'a reader -> 'a option
(** The oldest event; [None] when empty. *)

val pop : t -> 'a reader -> 'a option
(** Remove and return the oldest event; [None] when empty. *)

val drain : t -> 'a reader -> 'a list
(** Pop every buffered event, in record order. *)
