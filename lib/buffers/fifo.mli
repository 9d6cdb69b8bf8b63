(** A growable FIFO ring that allocates nothing once it has grown to its
    peak length: the item store of a core's work queue ([Core.queue]), the
    fast path's receive backlogs and the slow path's control-loop
    snapshots. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy]: vacated slots hold [dummy], so the ring keeps no
    reference to an element it handed out. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append, doubling the ring when full. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element.
    @raise Invalid_argument when empty. *)

val reverse_last : 'a t -> int -> unit
(** [reverse_last q n] reverses the order of the [n] most recently pushed
    elements in place.
    @raise Invalid_argument unless [0 <= n <= length q]. *)
