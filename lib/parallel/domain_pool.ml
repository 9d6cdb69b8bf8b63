(* Fixed-size pool of OCaml 5 domains running batches of independent jobs.

   A batch is a job count and a claim counter. Every participant (the
   submitting domain and the [jobs - 1] worker domains) takes the next
   index with [fetch_and_add] and runs that job, until the counter passes
   the end. The jobs this pool runs are coarse (whole simulations, 0.1 s
   and up), so one counter per batch balances them as well as work
   stealing would.

   Results land at each job's submission index, so [map] returns them in
   submission order whichever domain ran what, and parallel output is
   byte-identical to a serial run. A raising job yields [Error] at its
   index and never kills a worker.

   Maps nest: a job may call [map] on its own pool. Open batches sit in a
   list, newest first, and an idle worker helps the newest one that still
   has an unclaimed job. A waiting submitter runs only its own batch's
   jobs: the job it is inside holds per-domain state (an experiment's
   artifact capture, the domain's buffer pool) that another batch's job
   must not see. A job runs wholly on the domain that claimed it, so no
   more than [jobs] domains ever run the pool's jobs. *)

type batch = {
  n : int;
  run : int -> unit;  (* runs job [i] and stores its result; never raises *)
  next : int Atomic.t;  (* next unclaimed index *)
  left : int Atomic.t;  (* jobs not yet finished *)
}

type t = {
  size : int;  (* participants, including the submitting domain *)
  lock : Mutex.t;
  changed : Condition.t;  (* a batch opened or finished, or [stop] was set *)
  mutable open_batches : batch list;  (* newest first *)
  mutable workers : unit Domain.t array;
  mutable stop : bool;
}

let jobs t = t.size

let has_work b = Atomic.get b.next < b.n

(* Claim and run jobs of [b] until every one is claimed. *)
let drain t b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.left (-1) = 1 then
        Mutex.protect t.lock (fun () -> Condition.broadcast t.changed);
      loop ()
    end
  in
  loop ()

let worker_loop t =
  Mutex.lock t.lock;
  while not t.stop do
    match List.find_opt has_work t.open_batches with
    | Some b ->
      Mutex.unlock t.lock;
      drain t b;
      Mutex.lock t.lock
    | None -> Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs < 1";
  let t =
    {
      size = jobs;
      lock = Mutex.create ();
      changed = Condition.create ();
      open_batches = [];
      workers = [||];
      stop = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.protect t.lock (fun () ->
      t.stop <- true;
      Condition.broadcast t.changed);
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_result t ~f inputs =
  let n = Array.length inputs in
  let results = Array.make n (Error Not_found) in
  let b =
    {
      n;
      run = (fun i -> results.(i) <- (try Ok (f inputs.(i)) with e -> Error e));
      next = Atomic.make 0;
      left = Atomic.make n;
    }
  in
  Mutex.protect t.lock (fun () ->
      t.open_batches <- b :: t.open_batches;
      Condition.broadcast t.changed);
  drain t b;
  Mutex.protect t.lock (fun () ->
      t.open_batches <- List.filter (fun o -> o != b) t.open_batches;
      while Atomic.get b.left > 0 do
        Condition.wait t.changed t.lock
      done);
  results

let map t ~f inputs =
  Array.map
    (function Ok v -> v | Error e -> raise e)
    (map_result t ~f inputs)
