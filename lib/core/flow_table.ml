module Rss_table = Tas_netsim.Rss_table
module Four_tuple = Tas_proto.Addr.Four_tuple
module Tbl = Four_tuple.Tbl

(* Lock-model charges, in cycles: an owner-core lookup, and a cross-core
   touch (slow-path install or remove, a migrating group's two queues). *)
let local_cost = 24
let remote_cost = 96

(* One RSS queue's share of the accounting. [moves] counts remapped groups
   with flows that left or joined this queue: each charged one remote
   lock acquisition here. *)
type queue = {
  mutable lookups : int;
  mutable installs : int;
  mutable removes : int;
  mutable migrations_in : int;
  mutable migrations_out : int;
  mutable moves : int;
}

type t = {
  rss : Rss_table.t;
  tbl : Flow_state.t Tbl.t;
  groups : int array;  (* flows per RSS group *)
  queues : queue array;
  mutable migrated_flows : int;
}

let create ~rss =
  let n = Rss_table.num_queues rss in
  {
    rss;
    tbl = Tbl.create (256 * n);
    groups = Array.make (Rss_table.size rss) 0;
    queues =
      Array.init n (fun _ ->
          {
            lookups = 0;
            installs = 0;
            removes = 0;
            migrations_in = 0;
            migrations_out = 0;
            moves = 0;
          });
    migrated_flows = 0;
  }

let group_of t tuple = Rss_table.group_of_hash t.rss (Four_tuple.sym_hash tuple)

(* Owner access: the looking-up core is the one RSS steers the flow to.
   Allocates nothing: a miss raises the constant [Not_found]. *)
let find t tuple =
  let q =
    t.queues.(Rss_table.queue_for_hash t.rss (Four_tuple.sym_hash tuple))
  in
  q.lookups <- q.lookups + 1;
  match Tbl.find t.tbl tuple with
  | v -> v
  | exception Not_found -> Flow_state.absent

let add t tuple v =
  let g = group_of t tuple in
  let q = t.queues.(Rss_table.queue_of_group t.rss g) in
  q.installs <- q.installs + 1;
  if not (Tbl.mem t.tbl tuple) then t.groups.(g) <- t.groups.(g) + 1;
  Tbl.replace t.tbl tuple v

let remove t tuple =
  let g = group_of t tuple in
  let q = t.queues.(Rss_table.queue_of_group t.rss g) in
  q.removes <- q.removes + 1;
  if Tbl.mem t.tbl tuple then begin
    t.groups.(g) <- t.groups.(g) - 1;
    Tbl.remove t.tbl tuple
  end

(* A remapped group's flows now belong to [to_q]: only counters change,
   since every operation routes through the current redirection table. *)
let move_group t ~group ~from_q ~to_q =
  let moved = t.groups.(group) in
  if moved > 0 then begin
    let src = t.queues.(from_q) and dst = t.queues.(to_q) in
    src.moves <- src.moves + 1;
    dst.moves <- dst.moves + 1;
    src.migrations_out <- src.migrations_out + moved;
    dst.migrations_in <- dst.migrations_in + moved;
    t.migrated_flows <- t.migrated_flows + moved
  end;
  moved

let count t = Tbl.length t.tbl
let iter t f = Tbl.iter f t.tbl
let num_shards t = Array.length t.queues

let shard_count t i =
  let n = ref 0 in
  for g = 0 to Array.length t.groups - 1 do
    if Rss_table.queue_of_group t.rss g = i then n := !n + t.groups.(g)
  done;
  !n

let queue_remote_cycles q = remote_cost * (q.installs + q.removes + q.moves)
let queue_lock_cycles q = (local_cost * q.lookups) + queue_remote_cycles q

let lock_cycles t =
  Array.fold_left (fun acc q -> acc + queue_lock_cycles q) 0 t.queues

let remote_lock_cycles t =
  Array.fold_left (fun acc q -> acc + queue_remote_cycles q) 0 t.queues

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
  let q = t.queues.(i) in
  {
    flows = shard_count t i;
    lookups = q.lookups;
    installs = q.installs;
    removes = q.removes;
    migrations_in = q.migrations_in;
    migrations_out = q.migrations_out;
    lock_cycles = queue_lock_cycles q;
    remote_lock_cycles = queue_remote_cycles q;
  }

let register t m ?(labels = []) () =
  let module Metrics = Tas_telemetry.Metrics in
  Array.iteri
    (fun i (q : queue) ->
      let labels = ("shard", string_of_int i) :: labels in
      let c name help f = Metrics.counter_fn m ~labels ~help name f in
      c "fp_shard_lookups" "flow lookups served by this shard" (fun () ->
          q.lookups);
      c "fp_shard_installs" "slow-path flow installs into this shard"
        (fun () -> q.installs);
      c "fp_shard_removes" "slow-path flow removals from this shard"
        (fun () -> q.removes);
      c "fp_shard_migrations_in" "flows migrated into this shard" (fun () ->
          q.migrations_in);
      c "fp_shard_migrations_out" "flows migrated out of this shard"
        (fun () -> q.migrations_out);
      c "fp_shard_lock_cycles"
        "spinlock cycles charged against this shard (cost model only)"
        (fun () -> queue_lock_cycles q);
      Metrics.gauge_fn m ~labels ~help:"flows currently owned by this shard"
        "fp_shard_flows" (fun () -> float_of_int (shard_count t i)))
    t.queues

let dump t =
  let module J = Tas_telemetry.Json in
  let rows = ref [] in
  let collect tuple fl =
    let j =
      match Flow_state.to_json fl with
      | J.Obj fields ->
        J.Obj
          (("tuple", J.Str (Format.asprintf "%a" Four_tuple.pp tuple))
          :: fields)
      | j -> j
    in
    rows := (Flow_state.opaque fl, j) :: !rows
  in
  Tbl.iter collect t.tbl;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  J.List (List.map snd rows)
