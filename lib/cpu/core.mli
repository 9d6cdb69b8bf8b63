(** A simulated CPU core.

    Work items are charged in cycles and execute in FIFO order; a core is a
    serial resource, so queueing delay emerges naturally when offered work
    exceeds capacity. This is the mechanism behind every CPU-bound
    throughput result in the paper: a stack's efficiency (cycles/request)
    and its placement (which cores run stack vs. application code) determine
    saturation throughput.

    Every work item carries a {!category}, and busy time accumulates per
    category as well as in total — the raw material for the paper-style
    per-module cycle breakdowns (Tables 1/2) that the telemetry registry
    exports per core. *)

type t

(** Where a work item's cycles are attributed, mirroring the paper's
    per-module breakdown: fast-path receive (driver + TCP RX), ACK
    processing, segmentation/transmit, slow-path connection handling,
    slow-path congestion control, the libTAS API layer, application code,
    and everything unattributed. *)
type category = Driver_rx | Ack_rx | Tx | Conn | Cc | Api | App | Other

val categories : category list
(** All categories, in a fixed declaration order. *)

val category_name : category -> string

val create : Tas_engine.Sim.t -> ?freq_ghz:float -> id:int -> unit -> t
(** Default frequency 2.1 GHz (the paper's Xeon Platinum 8160). *)

val id : t -> int
val freq_ghz : t -> float

val run : t -> ?cat:category -> cycles:int -> (unit -> unit) -> unit
(** [run t ~cycles f] enqueues a work item consuming [cycles], then calls
    [f] at its completion time. [cat] defaults to [Other]. *)

val run_after :
  t -> ?cat:category -> delay:Tas_engine.Time_ns.t -> cycles:int -> (unit -> unit) -> unit
(** Work item that becomes runnable only after [delay] (e.g. wakeup IPI). *)

val charge : t -> cat:category -> cycles:int -> unit
(** Account [cycles] of busy time (extending the core's queue exactly as
    {!run} would) without scheduling a completion event. For batched processing
    where one already-scheduled pass will perform the work of many charged
    items — the accounting stays per-item while the events amortize. *)

(** {2 Work queues}

    A work queue hands items to one handler on one core, each item a
    work item of its own: [submit q ~cycles x] charges [cycles] exactly as
    {!run} does and calls the handler on [x] at the item's completion
    time. The queue pushes [x] onto a FIFO and posts one persistent drain
    thunk that pops the oldest item, so a submission allocates nothing once
    the FIFO has grown to its peak length.

    Popping at fire time hands each firing its own item because a core's
    work fires in the order it was queued: [busy_until], the completion
    time of the core's last queued item, never decreases, so every {!run},
    {!run_after} and {!submit} on a core posts its event no earlier than
    the one before it, and {!Tas_engine.Sim} fires events with the same
    timestamp in the order they were posted. This holds across any number
    of queues on the core and across {!run_after} delays. *)

type 'a queue

val queue : t -> dummy:'a -> 'a queue
(** An empty queue on the core. Vacated FIFO slots hold [dummy], so the
    queue keeps no reference to an item it handed out. *)

val set_handler : 'a queue -> ('a -> unit) -> unit
(** Install the handler: set once, before the first submission fires,
    typically right after the owner that the handler closes over is built.
    A submission that fires without one raises [Invalid_argument]. *)

val submit : 'a queue -> ?cat:category -> cycles:int -> 'a -> unit
(** [submit q ~cycles x]: {!run} [~cycles], then the handler on [x]. *)

val busy_ns : t -> int
(** Cumulative busy nanoseconds. Diff snapshots for windowed utilization. *)

val busy_ns_of : t -> category -> int
(** Cumulative busy nanoseconds attributed to one category. *)

val enable_util_buckets : t -> interval_ns:int -> unit
(** Turn on per-interval busy-time accounting: from now on every charged
    work item spreads its duration over fixed [interval_ns] buckets of sim
    time (bucket [b] covers [[b*interval, (b+1)*interval)]). Work queued
    behind a backlog is attributed to the interval(s) it actually occupies,
    so a bucket never exceeds [interval_ns] — utilization of interval [b]
    is exactly [util_busy_ns ~bucket:b / interval_ns], the signal the
    workload-proportionality controller thresholds (1.25/0.2 idle cores)
    are defined over.
    @raise Invalid_argument when [interval_ns <= 0]. *)

val util_busy_ns : t -> bucket:int -> int
(** Busy nanoseconds attributed to interval [bucket]; 0 out of range. *)

val backlog_ns : t -> int
(** How far the core is behind: [busy_until - now], 0 when idle. *)

val cycles_to_ns : t -> int -> int
