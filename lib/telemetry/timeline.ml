type labels = (string * string) list

type core_sample = {
  c_role : string;
  c_id : int;
  c_busy_ns : int;
  c_util : float;
  c_backlog_ns : int;
}

type frame = {
  seq : int;
  ts : int;
  counters : (string * labels * int) list;
  gauges : (string * labels * float) list;
  cores : core_sample list;
  shard_flows : int array;
  arena : (int * int) option;
}

type core_probe = {
  p_role : string;
  p_id : int;
  p_busy_in : int -> int;
  p_backlog : unit -> int;
}

type t = {
  interval_ns : int;
  capacity : int;
  metrics : Metrics.t;
  prev : (string * labels, int) Hashtbl.t;  (* last counter values *)
  mutable rev_cores : core_probe list;
  mutable shard_probe : (unit -> int array) option;
  mutable arena_probe : (unit -> (int * int) option) option;
  ring : frame option array;
  mutable head : int;  (* index of oldest frame *)
  mutable len : int;
  mutable captured : int;
  mutable evicted : int;
}

let create ~interval_ns ~capacity ~metrics () =
  if interval_ns <= 0 then invalid_arg "Timeline.create: interval_ns <= 0";
  if capacity <= 0 then invalid_arg "Timeline.create: capacity <= 0";
  {
    interval_ns;
    capacity;
    metrics;
    prev = Hashtbl.create 64;
    rev_cores = [];
    shard_probe = None;
    arena_probe = None;
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    captured = 0;
    evicted = 0;
  }

let interval_ns t = t.interval_ns
let capacity t = t.capacity
let length t = t.len
let captured t = t.captured
let evicted t = t.evicted

let add_core t ~role ~id ~busy_in ~backlog =
  t.rev_cores <-
    { p_role = role; p_id = id; p_busy_in = busy_in; p_backlog = backlog }
    :: t.rev_cores

let set_shard_probe t f = t.shard_probe <- Some f
let set_arena_probe t f = t.arena_probe <- Some f

let push t frame =
  if t.len = t.capacity then begin
    (* Full: overwrite the oldest frame. *)
    t.ring.(t.head) <- Some frame;
    t.head <- (t.head + 1) mod t.capacity;
    t.evicted <- t.evicted + 1
  end
  else begin
    t.ring.((t.head + t.len) mod t.capacity) <- Some frame;
    t.len <- t.len + 1
  end;
  t.captured <- t.captured + 1

let capture t ~ts =
  let bucket = if ts <= 0 then 0 else (ts - 1) / t.interval_ns in
  let counters = ref [] and gauges = ref [] in
  List.iter
    (fun s ->
      match s.Metrics.s_value with
      | Metrics.Counter v ->
        let key = (s.Metrics.s_name, s.Metrics.s_labels) in
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.prev key) in
        Hashtbl.replace t.prev key v;
        counters := (s.Metrics.s_name, s.Metrics.s_labels, v - prev) :: !counters
      | Metrics.Gauge v ->
        gauges := (s.Metrics.s_name, s.Metrics.s_labels, v) :: !gauges
      | Metrics.Hist _ -> ())
    (Metrics.snapshot t.metrics);
  let cores =
    List.rev_map
      (fun p ->
        let busy = p.p_busy_in bucket in
        {
          c_role = p.p_role;
          c_id = p.p_id;
          c_busy_ns = busy;
          c_util = float_of_int busy /. float_of_int t.interval_ns;
          c_backlog_ns = p.p_backlog ();
        })
      t.rev_cores
  in
  let frame =
    {
      seq = t.captured;
      ts;
      counters = List.rev !counters;
      gauges = List.rev !gauges;
      cores;
      shard_flows =
        (match t.shard_probe with Some f -> f () | None -> [||]);
      arena = (match t.arena_probe with Some f -> f () | None -> None);
    }
  in
  push t frame

let frames t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    match t.ring.((t.head + i) mod t.capacity) with
    | Some f -> out := f :: !out
    | None -> ()
  done;
  !out

(* Stable ts sort, mirroring [Trace.merge]: frames of one stream keep their
   order, equal-ts frames across streams order by stream position. *)
let merge streams =
  List.stable_sort (fun a b -> compare a.ts b.ts) (List.concat streams)

(* --- JSON ---------------------------------------------------------------- *)

let labels_to_json ls = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)

let frame_to_json f =
  Json.Obj
    [
      ("seq", Json.Int f.seq);
      ("ts", Json.Int f.ts);
      ( "counters",
        Json.List
          (List.map
             (fun (n, ls, d) ->
               Json.Obj
                 [
                   ("name", Json.Str n);
                   ("labels", labels_to_json ls);
                   ("delta", Json.Int d);
                 ])
             f.counters) );
      ( "gauges",
        Json.List
          (List.map
             (fun (n, ls, v) ->
               Json.Obj
                 [
                   ("name", Json.Str n);
                   ("labels", labels_to_json ls);
                   ("value", Json.Float v);
                 ])
             f.gauges) );
      ( "cores",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("role", Json.Str c.c_role);
                   ("id", Json.Int c.c_id);
                   ("busy_ns", Json.Int c.c_busy_ns);
                   ("util", Json.Float c.c_util);
                   ("backlog_ns", Json.Int c.c_backlog_ns);
                 ])
             f.cores) );
      ( "shard_flows",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) f.shard_flows))
      );
      ( "arena",
        match f.arena with
        | None -> Json.Null
        | Some (live, cap) ->
          Json.Obj [ ("live", Json.Int live); ("capacity", Json.Int cap) ] );
    ]

let to_json t =
  Json.Obj
    [
      ("interval_ns", Json.Int t.interval_ns);
      ("capacity", Json.Int t.capacity);
      ("captured", Json.Int t.captured);
      ("evicted", Json.Int t.evicted);
      ("frames", Json.List (List.map frame_to_json (frames t)));
    ]

(* --- Parsing (artifact import for the CLI) ------------------------------- *)

let fail msg = raise (Json.Parse_error ("Timeline.frames_of_json: " ^ msg))

let get_int = function
  | Json.Int n -> n
  | _ -> fail "expected int"

let get_float = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> fail "expected number"

let get_str = function
  | Json.Str s -> s
  | _ -> fail "expected string"

let get_list = function
  | Json.List l -> l
  | _ -> fail "expected list"

let get_mem key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail (Printf.sprintf "missing key %S" key)

let labels_of_json = function
  | Json.Obj fields ->
    List.map (fun (k, v) -> (k, get_str v)) fields
  | _ -> fail "labels: expected object"

let frame_of_json j =
  {
    seq = get_int (get_mem "seq" j);
    ts = get_int (get_mem "ts" j);
    counters =
      List.map
        (fun c ->
          ( get_str (get_mem "name" c),
            labels_of_json (get_mem "labels" c),
            get_int (get_mem "delta" c) ))
        (get_list (get_mem "counters" j));
    gauges =
      List.map
        (fun g ->
          ( get_str (get_mem "name" g),
            labels_of_json (get_mem "labels" g),
            get_float (get_mem "value" g) ))
        (get_list (get_mem "gauges" j));
    cores =
      List.map
        (fun c ->
          {
            c_role = get_str (get_mem "role" c);
            c_id = get_int (get_mem "id" c);
            c_busy_ns = get_int (get_mem "busy_ns" c);
            c_util = get_float (get_mem "util" c);
            c_backlog_ns = get_int (get_mem "backlog_ns" c);
          })
        (get_list (get_mem "cores" j));
    shard_flows =
      Array.of_list (List.map get_int (get_list (get_mem "shard_flows" j)));
    arena =
      (match get_mem "arena" j with
      | Json.Null -> None
      | a -> Some (get_int (get_mem "live" a), get_int (get_mem "capacity" a)));
  }

let frames_of_json j =
  let frame_list =
    match Json.member "frames" j with
    | Some l -> get_list l
    | None -> get_list j
  in
  List.map frame_of_json frame_list
