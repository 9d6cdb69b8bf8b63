(* Binary min-heap keyed by (time, seq). The sequence number breaks ties in
   scheduling order so simultaneous events run deterministically.

   The heap is a struct of three int arrays (time, seq, slot), and sifting
   moves a hole instead of swapping, so heap upkeep never stores a pointer
   and never goes through the write barrier. An event's closure sits in a
   per-slot [actions] table: written once when the event is posted, cleared
   once when it fires or is cancelled.

   Every queued event, with or without a handle, owns one slot until it is
   popped; slots are recycled through an int free stack. Since only queued
   events hold slots, the heap and the slot table share one capacity. A
   handle packs the slot with the slot's generation, which is bumped on
   every recycle, so cancelling a fired or recycled handle is a no-op.
   Cancellation is lazy: it disarms the slot, and the heap drops the event
   when it reaches the root. *)

type event = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1

(* Never a live handle: its slot is beyond any table. *)
let no_event = -1

type t = {
  mutable clock : Time_ns.t;
  mutable size : int;  (* queued events, cancelled ones included *)
  (* The heap, by position. *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  (* The slot table, by slot. *)
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable armed : bool array;  (* queued and neither fired nor cancelled *)
  mutable free : int array;  (* stack of unused slots *)
  mutable free_top : int;
  mutable next_seq : int;
  mutable live : int;
  mutable fired : int;
}

let initial_capacity = 64

(* Fill [free] so that the lowest of slots [lo .. hi - 1] is on top. *)
let stack_slots free lo hi =
  for i = 0 to hi - lo - 1 do
    free.(i) <- hi - 1 - i
  done

let create () =
  let cap = initial_capacity in
  let free = Array.make cap 0 in
  stack_slots free 0 cap;
  {
    clock = 0;
    size = 0;
    times = Array.make cap 0;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    actions = Array.make cap ignore;
    gens = Array.make cap 0;
    armed = Array.make cap false;
    free;
    free_top = cap;
    next_seq = 0;
    live = 0;
    fired = 0;
  }

let now t = t.clock
let events_fired t = t.fired
let pending t = t.live

(* Only called with every slot in use, so the free stack is empty. *)
let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.actions <- extend t.actions ignore;
  t.gens <- extend t.gens 0;
  t.armed <- extend t.armed false;
  t.free <- Array.make (2 * cap) 0;
  stack_slots t.free cap (2 * cap);
  t.free_top <- cap

(* Move the hole at [i] up until (time, seq, slot) fits there. A new event's
   seq exceeds every queued one, so on the way up only time decides. *)
let rec sift_up (times : int array) (seqs : int array) (slots : int array) i
    time seq slot =
  let p = (i - 1) / 2 in
  if i > 0 && time < times.(p) then begin
    times.(i) <- times.(p);
    seqs.(i) <- seqs.(p);
    slots.(i) <- slots.(p);
    sift_up times seqs slots p time seq slot
  end
  else begin
    times.(i) <- time;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

(* Move the hole at [i] down a heap of [n] until (time, seq, slot) fits. *)
let rec sift_down (times : int array) (seqs : int array) (slots : int array) n
    i time seq slot =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n
       && (times.(l + 1) < times.(l)
          || (times.(l + 1) = times.(l) && seqs.(l + 1) < seqs.(l)))
    then l + 1
    else l
  in
  if c < n && (times.(c) < time || (times.(c) = time && seqs.(c) < seq))
  then begin
    times.(i) <- times.(c);
    seqs.(i) <- seqs.(c);
    slots.(i) <- slots.(c);
    sift_down times seqs slots n c time seq slot
  end
  else begin
    times.(i) <- time;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

(* Queue [action] at [time]; returns its slot. *)
let insert t time action =
  if t.free_top = 0 then grow t;
  let top = t.free_top - 1 in
  t.free_top <- top;
  let slot = t.free.(top) in
  t.actions.(slot) <- action;
  t.armed.(slot) <- true;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t.times t.seqs t.slots i time seq slot;
  slot

let handle t slot = (t.gens.(slot) lsl slot_bits) lor slot

let schedule_at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %d is before now %d" time t.clock);
  handle t (insert t time action)

let schedule t dt action =
  if dt < 0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t (t.clock + dt) action

let post_at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.post_at: time %d is before now %d" time t.clock);
  ignore (insert t time action)

let post t dt action =
  if dt < 0 then invalid_arg "Sim.post: negative delay";
  post_at t (t.clock + dt) action

let cancel t ev =
  let slot = ev land slot_mask in
  if slot < Array.length t.gens && t.armed.(slot) && ev = handle t slot
  then begin
    t.armed.(slot) <- false;
    t.actions.(slot) <- ignore;
    t.live <- t.live - 1
  end

(* Take the root off the heap, free its slot, and fire it unless it was
   cancelled. The slot is recycled before the action runs, which may reuse
   it at once. *)
let pop t =
  let time = t.times.(0) and slot = t.slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then
    sift_down t.times t.seqs t.slots n 0 t.times.(n) t.seqs.(n) t.slots.(n);
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  if t.armed.(slot) then begin
    let action = t.actions.(slot) in
    t.actions.(slot) <- ignore;
    t.armed.(slot) <- false;
    t.live <- t.live - 1;
    t.clock <- time;
    t.fired <- t.fired + 1;
    action ();
    true
  end
  else false

let rec step t = t.size > 0 && (pop t || step t)

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    while t.size > 0 && t.times.(0) <= limit do
      ignore (pop t)
    done;
    t.clock <- max t.clock limit

let periodic t interval f =
  let rec occurrence () =
    f ();
    post t interval occurrence
  in
  post t interval occurrence
