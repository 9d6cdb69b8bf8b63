module Four_tuple = Tas_proto.Addr.Four_tuple
module Tbl = Four_tuple.Tbl

type 'v shard = {
  tbl : 'v Tbl.t;
  lock : Spinlock.t;
  mutable lookups : int;
  mutable installs : int;
  mutable removes : int;
  mutable migrations_in : int;
  mutable migrations_out : int;
}

type 'v t = {
  rss : Rss_table.t;
  shards : 'v shard array;
  absent : 'v;  (* what [find] returns on a miss *)
  mutable migrated_flows : int;
  mutable on_migrate : group:int -> from_q:int -> to_q:int -> moved:int -> unit;
}

let make_shard () =
  {
    tbl = Tbl.create 256;
    lock = Spinlock.create ();
    lookups = 0;
    installs = 0;
    removes = 0;
    migrations_in = 0;
    migrations_out = 0;
  }

(* Drain-in-place on an RSS rewrite: every flow of the remapped group moves
   from the old queue's shard to the new one before [set_active] returns —
   i.e. before any packet steered by the new table can look it up. *)
let migrate_group t ~group ~from_q ~to_q =
  let src = t.shards.(from_q) and dst = t.shards.(to_q) in
  let moving = ref [] in
  Tbl.iter
    (fun k v ->
      if Rss_table.group_of_hash t.rss (Four_tuple.sym_hash k) = group then
        moving := (k, v) :: !moving)
    src.tbl;
  let moved = List.length !moving in
  if moved > 0 then begin
    (* Both shard locks are taken from the migrating (slow-path) core. *)
    ignore (Spinlock.acquire src.lock ~remote:true);
    ignore (Spinlock.acquire dst.lock ~remote:true);
    List.iter
      (fun (k, v) ->
        Tbl.remove src.tbl k;
        Tbl.replace dst.tbl k v)
      !moving;
    src.migrations_out <- src.migrations_out + moved;
    dst.migrations_in <- dst.migrations_in + moved;
    t.migrated_flows <- t.migrated_flows + moved
  end;
  t.on_migrate ~group ~from_q ~to_q ~moved

let create ~rss ~absent () =
  let t =
    {
      rss;
      shards =
        Array.init (Rss_table.num_queues rss) (fun _ ->
            make_shard ());
      absent;
      migrated_flows = 0;
      on_migrate = (fun ~group:_ ~from_q:_ ~to_q:_ ~moved:_ -> ());
    }
  in
  Rss_table.set_on_move rss (fun ~group ~from_q ~to_q ->
      migrate_group t ~group ~from_q ~to_q);
  t

let rss t = t.rss
let num_shards t = Array.length t.shards
let set_on_migrate t f = t.on_migrate <- f

let shard_of t tuple =
  Rss_table.queue_for_hash t.rss (Four_tuple.sym_hash tuple)

(* Owner access: the looking-up core is the one RSS steers the flow to.
   Allocates nothing: a miss raises the constant [Not_found]. *)
let find t tuple =
  let s = t.shards.(shard_of t tuple) in
  s.lookups <- s.lookups + 1;
  ignore (Spinlock.acquire s.lock ~remote:false);
  match Tbl.find s.tbl tuple with v -> v | exception Not_found -> t.absent

let add t tuple v =
  let s = t.shards.(shard_of t tuple) in
  s.installs <- s.installs + 1;
  (* Slow-path install: a cross-core touch of the owning shard. *)
  ignore (Spinlock.acquire s.lock ~remote:true);
  Tbl.replace s.tbl tuple v

let remove t tuple =
  let s = t.shards.(shard_of t tuple) in
  s.removes <- s.removes + 1;
  ignore (Spinlock.acquire s.lock ~remote:true);
  Tbl.remove s.tbl tuple

let shard_count t i = Tbl.length t.shards.(i).tbl
let count t = Array.fold_left (fun acc s -> acc + Tbl.length s.tbl) 0 t.shards

let iter_shard t i f = Tbl.iter f t.shards.(i).tbl
let iter t f = Array.iteri (fun i _ -> iter_shard t i f) t.shards

let lock_cycles t =
  Array.fold_left (fun acc s -> acc + Spinlock.cycles s.lock) 0 t.shards

let remote_lock_cycles t =
  Array.fold_left (fun acc s -> acc + Spinlock.remote_cycles s.lock) 0 t.shards

let shard_lock_cycles t i = Spinlock.cycles t.shards.(i).lock
let migrated_flows t = t.migrated_flows

type shard_stats = {
  flows : int;
  lookups : int;
  installs : int;
  removes : int;
  migrations_in : int;
  migrations_out : int;
  lock_cycles : int;
  remote_lock_cycles : int;
}

let shard_stats t i =
  let s = t.shards.(i) in
  {
    flows = Tbl.length s.tbl;
    lookups = s.lookups;
    installs = s.installs;
    removes = s.removes;
    migrations_in = s.migrations_in;
    migrations_out = s.migrations_out;
    lock_cycles = Spinlock.cycles s.lock;
    remote_lock_cycles = Spinlock.remote_cycles s.lock;
  }

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  Array.iteri
    (fun i (s : _ shard) ->
      let labels = ("shard", string_of_int i) :: labels in
      let c name help f = Metrics.counter_fn m ~labels ~help name f in
      c "fp_shard_lookups" "flow lookups served by this shard" (fun () ->
          s.lookups);
      c "fp_shard_installs" "slow-path flow installs into this shard"
        (fun () -> s.installs);
      c "fp_shard_removes" "slow-path flow removals from this shard"
        (fun () -> s.removes);
      c "fp_shard_migrations_in" "flows migrated into this shard" (fun () ->
          s.migrations_in);
      c "fp_shard_migrations_out" "flows migrated out of this shard"
        (fun () -> s.migrations_out);
      c "fp_shard_lock_cycles"
        "spinlock cycles charged against this shard (cost model only)"
        (fun () -> Spinlock.cycles s.lock);
      Metrics.gauge_fn m ~labels ~help:"flows currently owned by this shard"
        "fp_shard_flows" (fun () -> float_of_int (Tbl.length s.tbl)))
    t.shards
