module Rss_table = Tas_shard.Rss_table
module Flow_shards = Tas_shard.Flow_shards

type t = Flow_state.t Flow_shards.t

let create_sharded ~rss () =
  Flow_shards.create ~rss ~absent:Flow_state.absent ()

(* NIC-less table: one shard behind a private single-queue redirection
   table (nothing ever migrates). Same code path as the sharded table. *)
let create () = create_sharded ~rss:(Rss_table.create ~num_queues:1 ()) ()

let add = Flow_shards.add
let find = Flow_shards.find
let remove = Flow_shards.remove
let count = Flow_shards.count
let iter = Flow_shards.iter

let num_shards = Flow_shards.num_shards
let shard_count = Flow_shards.shard_count
let shard_of = Flow_shards.shard_of
let shard_stats = Flow_shards.shard_stats
let lock_cycles = Flow_shards.lock_cycles
let remote_lock_cycles = Flow_shards.remote_lock_cycles
let migrated_flows = Flow_shards.migrated_flows
let set_on_migrate = Flow_shards.set_on_migrate
let register = Flow_shards.register

let dump t =
  let module J = Tas_telemetry.Json in
  let rows = ref [] in
  let collect tuple fl =
    let j =
      match Flow_state.to_json fl with
      | J.Obj fields ->
        J.Obj
          (( "tuple",
             J.Str
               (Format.asprintf "%a" Tas_proto.Addr.Four_tuple.pp tuple) )
          :: fields)
      | j -> j
    in
    rows := (Flow_state.opaque fl, j) :: !rows
  in
  Flow_shards.iter t collect;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  J.List (List.map snd rows)
