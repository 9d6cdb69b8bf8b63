(* Exact-length payload buffer pool.

   The fast path allocates one payload buffer per transmitted segment; under
   a bulk workload that is the single largest allocation on the packet hot
   path (an MSS-sized Bytes per packet). Workloads send a small set of
   distinct sizes (MSS-sized bulk segments, fixed RPC sizes), so free lists
   are keyed by exact length: a recycled buffer is returned only for a
   request of exactly its size, which keeps [Bytes.length payload] an exact
   segment length everywhere — no slack, no slicing.

   Recycled buffers contain stale bytes; every taker must overwrite the full
   buffer (the fast path fills it with [Ring.read_at ~len]). Reuse is
   therefore invisible to simulation results: hit or miss, the simulated
   behaviour is bit-identical.

   [local ()] is the per-domain instance: every host of a simulation running
   on one domain shares it, so a receiver recycling a sender's payload
   returns the buffer to the pool the sender draws from. Parallel experiment
   jobs on different domains get disjoint pools — no cross-domain traffic,
   no locks.

   A size class is unbounded: a buffer is only created when every existing
   one of its size is live, so a class never holds more buffers than were
   live at once, and keeping them all costs no peak heap. A cap would only
   turn a bunch of buffers coming back at once (a long delay line
   draining) into garbage followed by fresh allocations. *)

type stats = {
  takes : int;
  hits : int;
  gives : int;
  drops : int;  (* always 0: no class refuses a give *)
}

(* One LIFO array stack of free buffers per exact length. *)
type stack = { mutable items : bytes array; mutable n : int }

module Int_tbl = Hashtbl.Make (Int)

type t = {
  classes : stack Int_tbl.t;
  mutable takes : int;
  mutable hits : int;
  mutable gives : int;
  mutable live : int;  (* poolable-size buffers handed out and not given back *)
}

let create () =
  { classes = Int_tbl.create 16; takes = 0; hits = 0; gives = 0; live = 0 }

(* Below this size a fresh [Bytes.create] is cheaper than a pooled round
   trip; small-RPC payloads skip the pool entirely. *)
let min_len = 256

(* The stack for [len]; [find] raises rather than allocating an option. *)
let stack t len =
  match Int_tbl.find t.classes len with
  | s -> s
  | exception Not_found ->
    let s = { items = [||]; n = 0 } in
    Int_tbl.replace t.classes len s;
    s

let take t len =
  t.takes <- t.takes + 1;
  if len < min_len then (if len = 0 then Bytes.empty else Bytes.create len)
  else begin
    t.live <- t.live + 1;
    let s = stack t len in
    if s.n = 0 then Bytes.create len
    else begin
      s.n <- s.n - 1;
      t.hits <- t.hits + 1;
      s.items.(s.n)
    end
  end

let give t buf =
  let len = Bytes.length buf in
  if len >= min_len then begin
    t.gives <- t.gives + 1;
    t.live <- t.live - 1;
    let s = stack t len in
    if s.n = Array.length s.items then begin
      let items = Array.make (max 8 (2 * s.n)) buf in
      Array.blit s.items 0 items 0 s.n;
      s.items <- items
    end;
    s.items.(s.n) <- buf;
    s.n <- s.n + 1
  end

let stats t = { takes = t.takes; hits = t.hits; gives = t.gives; drops = 0 }

let live t = t.live

let reset_stats t =
  t.takes <- 0;
  t.hits <- 0;
  t.gives <- 0

let key = Domain.DLS.new_key (fun () -> create ())
let local () = Domain.DLS.get key
