module Sim = Tas_engine.Sim
module Fifo = Tas_buffers.Fifo

type category = Driver_rx | Ack_rx | Tx | Conn | Cc | Api | App | Other

let categories = [ Driver_rx; Ack_rx; Tx; Conn; Cc; Api; App; Other ]

let category_name = function
  | Driver_rx -> "rx"
  | Ack_rx -> "ack_rx"
  | Tx -> "tx"
  | Conn -> "conn"
  | Cc -> "cc"
  | Api -> "api"
  | App -> "app"
  | Other -> "other"

let cat_index = function
  | Driver_rx -> 0
  | Ack_rx -> 1
  | Tx -> 2
  | Conn -> 3
  | Cc -> 4
  | Api -> 5
  | App -> 6
  | Other -> 7

type t = {
  sim : Sim.t;
  id : int;
  freq_ghz : float;
  mutable busy_until : int;
  mutable busy_ns : int;
  busy_by : int array;  (* ns per category, indexed by cat_index *)
  mutable util_interval : int;  (* 0 = per-interval accounting off *)
  mutable util_buckets : int array;  (* busy ns per interval, growable *)
}

let create sim ?(freq_ghz = 2.1) ~id () =
  {
    sim;
    id;
    freq_ghz;
    busy_until = 0;
    busy_ns = 0;
    busy_by = Array.make (List.length categories) 0;
    util_interval = 0;
    util_buckets = [||];
  }

let enable_util_buckets t ~interval_ns =
  if interval_ns <= 0 then invalid_arg "Core.enable_util_buckets: interval <= 0";
  t.util_interval <- interval_ns;
  if Array.length t.util_buckets = 0 then t.util_buckets <- Array.make 64 0

let util_busy_ns t ~bucket =
  if bucket < 0 || bucket >= Array.length t.util_buckets then 0
  else t.util_buckets.(bucket)

(* Spread [dur] ns of busy time starting at [start] over the interval
   buckets it occupies. [start] can be in the future (queueing backlog), so
   attribution lands in the interval(s) the core actually spends busy. *)
let account_util t ~start ~dur =
  if t.util_interval > 0 && dur > 0 then begin
    let iv = t.util_interval in
    let last = (start + dur - 1) / iv in
    let cap = Array.length t.util_buckets in
    if last >= cap then begin
      let cap' = max (last + 1) (cap * 2) in
      let a = Array.make cap' 0 in
      Array.blit t.util_buckets 0 a 0 cap;
      t.util_buckets <- a
    end;
    let pos = ref start and left = ref dur in
    while !left > 0 do
      let b = !pos / iv in
      let room = ((b + 1) * iv) - !pos in
      let take = min room !left in
      t.util_buckets.(b) <- t.util_buckets.(b) + take;
      pos := !pos + take;
      left := !left - take
    done
  end

let id t = t.id
let freq_ghz t = t.freq_ghz

let cycles_to_ns t cycles =
  int_of_float (ceil (float_of_int cycles /. t.freq_ghz))

let start_no_earlier_than t ~cat ready cycles f =
  let start = max ready t.busy_until in
  let dur = cycles_to_ns t cycles in
  t.busy_until <- start + dur;
  t.busy_ns <- t.busy_ns + dur;
  let i = cat_index cat in
  t.busy_by.(i) <- t.busy_by.(i) + dur;
  account_util t ~start ~dur;
  (* Handle-free: core dispatch is one event per packet-processing step and
     is never cancelled, so the queue entry can be recycled. *)
  Sim.post_at t.sim t.busy_until f

let run t ?(cat = Other) ~cycles f =
  start_no_earlier_than t ~cat (Sim.now t.sim) cycles f

(* Busy-time accounting without an event: the caller already has a pass
   scheduled that will cover this work (burst receive), so only the cost
   needs to land on the core. Identical arithmetic to
   [start_no_earlier_than] minus the [Sim.post_at]. *)
let charge t ~cat ~cycles =
  let start = max (Sim.now t.sim) t.busy_until in
  let dur = cycles_to_ns t cycles in
  t.busy_until <- start + dur;
  t.busy_ns <- t.busy_ns + dur;
  let i = cat_index cat in
  t.busy_by.(i) <- t.busy_by.(i) + dur;
  account_util t ~start ~dur

let run_after t ?(cat = Other) ~delay ~cycles f =
  start_no_earlier_than t ~cat (Sim.now t.sim + delay) cycles f

let busy_ns t = t.busy_ns
let busy_ns_of t cat = t.busy_by.(cat_index cat)
let backlog_ns t = max 0 (t.busy_until - Sim.now t.sim)

type 'a queue = {
  q_core : t;
  items : 'a Fifo.t;
  mutable handler : 'a -> unit;
  drain : unit -> unit;  (* the one thunk every submission posts *)
}

let queue core ~dummy =
  let rec q =
    {
      q_core = core;
      items = Fifo.create dummy;
      handler = (fun _ -> invalid_arg "Core.submit: queue has no handler");
      drain = (fun () -> q.handler (Fifo.pop q.items));
    }
  in
  q

let set_handler q f = q.handler <- f

let submit q ?cat ~cycles x =
  Fifo.push q.items x;
  run q.q_core ?cat ~cycles q.drain
