(** Chrome trace-event exporter (chrome://tracing, ui.perfetto.dev): the one
    writer through which spans, trace rings and timelines leave as a trace
    file. A document holds

    - span slices (["X"]): one per adjacent hop pair of a sampled packet,
      on process 0 with the span id as the track; a single-event span is an
      instant (["i"]) on its track;
    - trace instants (["i"]): one per trace-ring event, on its host's
      process and a per-core track (track 0 for events not attributed to a
      core, track [core + 1] otherwise);
    - timeline counters (["C"]): per frame, each core's utilization, the
      total shard flows and the arena's live/free slots, on its host's
      process.

    Timestamps and durations are in microseconds of simulated time.
    Process and track names travel as ["M"] metadata events. The output is
    a pure function of the inputs, so same-seed runs export identical
    bytes. *)

type host = {
  name : string;  (** process name, e.g. ["server"] *)
  events : Trace.event list;  (** a drained trace ring, in record order *)
  frames : Timeline.frame list;  (** timeline frames, oldest first *)
}

val to_json : ?spans:Span.event list -> host list -> Json.t
(** [to_json ~spans hosts]: host [i] is process [i + 1]. *)
