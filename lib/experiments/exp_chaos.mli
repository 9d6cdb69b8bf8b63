(** Chaos experiment ([ch]): drives a closed-loop KV workload between two
    TAS hosts through a set of seeded fault schedules (bursty loss,
    corruption, duplication + reordering, link flaps, and everything at
    once) and asserts hardening invariants — fault-stage packet
    conservation, corruption drops reconciling exactly against NIC/fast-path
    validation counters, every connection completing or failing cleanly, no
    leaked flow-table entries, and bit-identical counters across two
    same-seed runs. Violations are reported (and counted in the artifact),
    never raised; a run over all schedules ends with the [violations]
    gate, which fails when the count is nonzero.

    Schedules are independent seeded simulations; they run on
    {!Run_opts.pool} (in parallel when it has more than one participant)
    and are merged in submission order, so the report and artifact are
    byte-identical to a serial run. *)

val run : ?quick:bool -> ?only:string list -> Format.formatter -> unit
(** [only] restricts the run to the named schedules (default: all five) —
    used by the parallel-determinism and seed-digest tests to keep
    runtimes bounded. A restricted run prints no gate. *)
