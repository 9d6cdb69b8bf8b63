module Hist = Tas_engine.Stats.Hist

type hop =
  | App_send
  | Fp_tx
  | Nic_tx
  | Port_q
  | Port_out
  | Switch_fwd
  | Nic_rx
  | Fp_rx
  | Ctx_notify
  | App_deliver

let all_hops =
  [
    App_send; Fp_tx; Nic_tx; Port_q; Port_out; Switch_fwd; Nic_rx; Fp_rx;
    Ctx_notify; App_deliver;
  ]

let hop_index = function
  | App_send -> 0
  | Fp_tx -> 1
  | Nic_tx -> 2
  | Port_q -> 3
  | Port_out -> 4
  | Switch_fwd -> 5
  | Nic_rx -> 6
  | Fp_rx -> 7
  | Ctx_notify -> 8
  | App_deliver -> 9

(* The ring's event code is the hop index. *)
let hop_of_index = Array.of_list all_hops

let names =
  [|
    "app_send"; "fp_tx"; "nic_tx"; "port_q"; "port_out"; "switch_fwd";
    "nic_rx"; "fp_rx"; "ctx_notify"; "app_deliver";
  |]

let hop_name h = names.(hop_index h)

type event = {
  ts : Tas_engine.Time_ns.t;
  id : int;
  hop : hop;
  core : int;
  flow : int;
}

type t = {
  enabled : bool;
  sample_every : int;
  ring : Event_ring.t;
  mutable next_id : int;
  mutable tick : int;
  mutable offered : int;
}

let create ?(enabled = true) ?(sample_every = 1) ~capacity () =
  {
    enabled;
    sample_every = max 1 sample_every;
    ring = Event_ring.create (max 1 capacity);
    next_id = 0;
    tick = 0;
    offered = 0;
  }

let disabled () = create ~enabled:false ~capacity:1 ()

let enabled t = t.enabled
let length t = Event_ring.length t.ring
let offered t = t.offered
let started t = t.next_id
let recorded t = Event_ring.recorded t.ring
let dropped t = Event_ring.dropped t.ring

let push t ~ts ~id ~hop ~core ~flow =
  ignore (Event_ring.push t.ring ~ts ~code:(hop_index hop) ~id ~core ~flow)

let start t ~ts ~hop ~core ~flow =
  if not t.enabled then -1
  else begin
    let tick = t.tick in
    t.tick <- tick + 1;
    t.offered <- t.offered + 1;
    if tick mod t.sample_every <> 0 then -1
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      push t ~ts ~id ~hop ~core ~flow;
      id
    end
  end

let record t ~ts ~id ~hop ~core ~flow =
  if t.enabled && id >= 0 then push t ~ts ~id ~hop ~core ~flow

let drain t =
  Event_ring.drain t.ring (fun ~ts ~code ~id ~core ~flow ->
      { ts; id; hop = hop_of_index.(code); core; flow })

(* --- Analysis ----------------------------------------------------------- *)

let group events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let prev = try Hashtbl.find tbl e.id with Not_found -> [] in
      Hashtbl.replace tbl e.id (e :: prev))
    events;
  Hashtbl.fold (fun id evs acc -> (id, evs) :: acc) tbl []
  |> List.map (fun (id, evs) ->
         (id, List.stable_sort (fun a b -> compare a.ts b.ts) (List.rev evs)))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type segment = { seg_from : hop; seg_to : hop; seg_hist : Hist.t }

type breakdown = {
  segments : segment list;
  end_to_end : Hist.t;
  spans : int;
  complete : int;
}

let breakdown events =
  let spans = group events in
  let segs = Hashtbl.create 16 in
  let e2e = Hist.create () in
  let complete = ref 0 in
  List.iter
    (fun (_, evs) ->
      match evs with
      | [] | [ _ ] -> ()
      | first :: _ ->
        let rec walk = function
          | a :: (b :: _ as rest) ->
            let key = (hop_index a.hop, hop_index b.hop) in
            let h =
              match Hashtbl.find_opt segs key with
              | Some (_, _, h) -> h
              | None ->
                let h = Hist.create () in
                Hashtbl.add segs key (a.hop, b.hop, h);
                h
            in
            Hist.add h (float_of_int (b.ts - a.ts));
            walk rest
          | [ last ] ->
            Hist.add e2e (float_of_int (last.ts - first.ts));
            if first.hop = App_send && last.hop = App_deliver then
              incr complete
          | [] -> ()
        in
        walk evs)
    spans;
  let segments =
    Hashtbl.fold (fun key (f, t, h) acc -> (key, f, t, h) :: acc) segs []
    |> List.sort (fun (ka, _, _, _) (kb, _, _, _) -> compare ka kb)
    |> List.map (fun (_, f, t, h) ->
           { seg_from = f; seg_to = t; seg_hist = h })
  in
  { segments; end_to_end = e2e; spans = List.length spans; complete = !complete }
