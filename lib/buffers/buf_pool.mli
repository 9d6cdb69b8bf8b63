(** Exact-length payload buffer pool for the packet hot path.

    Free lists are keyed by exact buffer length, so a recycled buffer is
    only handed out for a request of precisely its size and
    [Bytes.length payload] stays an exact segment length. Recycled buffers
    hold stale bytes — takers must overwrite the full buffer. Reuse is
    invisible to simulation results.

    {!local} is the per-domain instance shared by all hosts of a simulation
    running on that domain (parallel experiment jobs on other domains get
    their own). *)

type t

type stats = {
  takes : int;  (** allocation requests *)
  hits : int;  (** requests served from a free list *)
  gives : int;  (** buffers offered back *)
  drops : int;
      (** gives refused; always 0, since a size class has no cap: it never
          holds more buffers than were live at once *)
}

val create : unit -> t
(** Fresh pool. A size class keeps every buffer given back: one is only
    created when all of its size are live, so a class holds at most the
    peak number live at once. *)

val min_len : int
(** Buffers shorter than this (256 B) bypass the pool in both directions: a
    fresh allocation is cheaper than the pooled round trip. *)

val take : t -> int -> bytes
(** [take t len] is a buffer of exactly [len] bytes, recycled when one is
    free and freshly allocated otherwise. Contents are unspecified for
    recycled buffers. [take t 0] is [Bytes.empty]. Each size class is one
    array stack, so a warm take or give allocates nothing. *)

val give : t -> bytes -> unit
(** Return a buffer to the pool. The caller must not touch it afterwards. *)

val stats : t -> stats

val live : t -> int
(** Buffers of at least {!min_len} bytes handed out by {!take} and not yet
    given back: a leak check. Not cleared by {!reset_stats}. *)

val reset_stats : t -> unit

val local : unit -> t
(** The calling domain's pool instance. *)
