(** Discrete-event simulation core.

    A simulator holds a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant fire in scheduling order, which
    keeps runs fully deterministic. Events may be cancelled; cancellation is
    O(1) (the event is skipped when popped). A timer that may be disarmed
    or re-armed keeps its {!schedule} handle and {!cancel}s it: a
    cancelled event never fires and counts in neither {!events_fired} nor
    {!pending}. *)

type t
(** A simulator instance. *)

type event
(** Handle for a scheduled event, usable for cancellation. *)

val create : unit -> t
(** [create ()] is a fresh simulator with the clock at zero and no events. *)

val now : t -> Time_ns.t
(** [now sim] is the current virtual time. *)

val no_event : event
(** A handle that names no event: what a timer field holds while nothing is
    armed. Cancelling it is a no-op. *)

val schedule : t -> Time_ns.t -> (unit -> unit) -> event
(** [schedule sim dt f] schedules [f] to run [dt] nanoseconds from now.
    [dt] must be non-negative.
    @raise Invalid_argument if [dt < 0]. *)

val schedule_at : t -> Time_ns.t -> (unit -> unit) -> event
(** [schedule_at sim time f] schedules [f] at absolute virtual [time], which
    must not be in the past.
    @raise Invalid_argument if [time < now sim]. *)

val post : t -> Time_ns.t -> (unit -> unit) -> unit
(** [post sim dt f] is {!schedule} without a cancellation handle, for the
    fire-and-forget event storm of the hot path (port serialization,
    propagation, core dispatch, pacing): callers that never cancel document
    that fact and skip binding a handle.
    @raise Invalid_argument if [dt < 0]. *)

val post_at : t -> Time_ns.t -> (unit -> unit) -> unit
(** [post_at sim time f] is {!schedule_at} without a cancellation handle;
    see {!post}.
    @raise Invalid_argument if [time < now sim]. *)

val events_fired : t -> int
(** Total events executed since [create] (the perf bench's events/sec
    numerator). *)

val cancel : t -> event -> unit
(** [cancel sim ev] prevents [ev] from firing. Cancelling an event that has
    already fired or been cancelled is a no-op. *)

val pending : t -> int
(** [pending sim] is the number of live (not cancelled, not fired) events. *)

val run : ?until:Time_ns.t -> t -> unit
(** [run sim] executes events in time order until the queue is empty, or — if
    [until] is given — until the clock would pass [until] (the clock is then
    set to exactly [until]; later events stay queued). *)

val step : t -> bool
(** [step sim] executes the single next event. Returns [false] if the queue
    was empty. *)

val periodic : t -> Time_ns.t -> (unit -> unit) -> unit
(** [periodic sim interval f] runs [f] every [interval] ns from now on,
    the first time [interval] from now. The series is never stopped: each
    occurrence is {!post}ed by the one before. *)
