type host = {
  name : string;
  events : Trace.event list;
  frames : Timeline.frame list;
}

(* One trace event: name, phase, optional sim timestamp (in µs), process,
   optional track, phase-specific fields, then args. *)
let event ?ts ?tid ~pid name ph fields args =
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Json.Obj
    ([ ("name", Json.Str name); ("ph", Json.Str ph) ]
    @ opt "ts" (fun ns -> Json.Float (float_of_int ns /. 1e3)) ts
    @ [ ("pid", Json.Int pid) ]
    @ opt "tid" (fun t -> Json.Int t) tid
    @ fields
    @ [ ("args", Json.Obj args) ])

let name_meta ?tid ~pid what name =
  event ?tid ~pid what "M" [] [ ("name", Json.Str name) ]

let instant ~cat ~pid ~tid ~ts name args =
  event ~ts ~tid ~pid name "i"
    [ ("cat", Json.Str cat); ("s", Json.Str "t") ]
    args

(* One track per span, so Perfetto draws each packet's journey as a lane of
   adjacent slices. *)
let span_events spans =
  let slice (a : Span.event) (b : Span.event) =
    event ~ts:a.ts ~tid:a.id ~pid:0
      (Span.hop_name a.hop ^ "->" ^ Span.hop_name b.hop)
      "X"
      [
        ("cat", Json.Str "tas_span");
        ("dur", Json.Float (float_of_int (b.ts - a.ts) /. 1e3));
      ]
      [
        ("flow", Json.Int a.flow);
        ("from_core", Json.Int a.core);
        ("to_core", Json.Int b.core);
      ]
  in
  let rec walk = function
    | a :: (b :: _ as rest) -> slice a b :: walk rest
    | _ -> []
  in
  List.concat_map
    (fun (_, evs) ->
      match evs with
      | [ (e : Span.event) ] ->
        [
          instant ~cat:"tas_span" ~pid:0 ~tid:e.id ~ts:e.ts
            (Span.hop_name e.hop)
            [ ("flow", Json.Int e.flow) ];
        ]
      | evs -> walk evs)
    (Span.group spans)

let trace_events ~pid events =
  let cores =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.core) events)
  in
  List.map
    (fun core ->
      name_meta ~pid ~tid:(core + 1) "thread_name"
        (if core < 0 then "host" else Printf.sprintf "core %d" core))
    cores
  @ List.map
      (fun (e : Trace.event) ->
        instant ~cat:"tas_trace" ~pid ~tid:(e.core + 1) ~ts:e.ts
          (Trace.kind_name e.kind)
          [ ("flow", Json.Int e.flow) ])
      events

let counter_events ~pid frames =
  List.concat_map
    (fun (f : Timeline.frame) ->
      let counter name args = event ~ts:f.ts ~pid name "C" [] args in
      List.map
        (fun (c : Timeline.core_sample) ->
          counter
            (Printf.sprintf "util %s%d" c.c_role c.c_id)
            [ ("util", Json.Float c.c_util) ])
        f.cores
      @ (if Array.length f.shard_flows = 0 then []
         else
           [
             counter "shard flows"
               [ ("flows", Json.Int (Array.fold_left ( + ) 0 f.shard_flows)) ];
           ])
      @
      match f.arena with
      | None -> []
      | Some (live, cap) ->
        [
          counter "arena"
            [ ("live", Json.Int live); ("free", Json.Int (max 0 (cap - live))) ];
        ])
    frames

let to_json ?(spans = []) hosts =
  let span_part =
    if spans = [] then []
    else name_meta ~pid:0 "process_name" "spans" :: span_events spans
  in
  let host_part =
    List.concat
      (List.mapi
         (fun i h ->
           let pid = i + 1 in
           (name_meta ~pid "process_name" h.name :: trace_events ~pid h.events)
           @ counter_events ~pid h.frames)
         hosts)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (span_part @ host_part));
      ("displayTimeUnit", Json.Str "ns");
    ]
