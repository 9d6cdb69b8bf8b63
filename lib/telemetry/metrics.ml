module Stats = Tas_engine.Stats

type labels = (string * string) list

type instrument =
  | Counter_fn of (unit -> int)
  | Gauge_fn of (unit -> float)
  | Histogram of Stats.Hist.t

type entry = {
  name : string;
  labels : labels;
  help : string;
  instrument : instrument;
}

type t = {
  tbl : (string * labels, entry) Hashtbl.t;
  mutable rev_order : entry list;  (* insertion order, for iteration *)
}

let quantile_points = [ 50.0; 90.0; 99.0; 99.9 ]
let create () = { tbl = Hashtbl.create 64; rev_order = [] }

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let validate_name name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name))
    name

let add t ~name ~labels ~help instrument =
  validate_name name;
  let labels = norm_labels labels in
  let key = (name, labels) in
  if Hashtbl.mem t.tbl key then
    invalid_arg
      (Printf.sprintf "Metrics: duplicate registration of %S" name);
  let e = { name; labels; help; instrument } in
  Hashtbl.replace t.tbl key e;
  t.rev_order <- e :: t.rev_order

let find t ~name ~labels = Hashtbl.find_opt t.tbl (name, norm_labels labels)

let counter_fn t ?(labels = []) ?(help = "") name f =
  add t ~name ~labels ~help (Counter_fn f)

let gauge_fn t ?(labels = []) ?(help = "") name f =
  add t ~name ~labels ~help (Gauge_fn f)

let counter t ?(labels = []) ?(help = "") name =
  match find t ~name ~labels with
  | Some { instrument = Counter_fn _; _ } ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %S already registered as a closure" name)
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
  | None ->
    let c = Stats.Counter.create () in
    add t ~name ~labels ~help (Counter_fn (fun () -> Stats.Counter.value c));
    c

let hist t ?(labels = []) ?(help = "") name =
  match find t ~name ~labels with
  | Some { instrument = Histogram h; _ } -> h
  | Some _ ->
    invalid_arg (Printf.sprintf "Metrics.hist: %S is not a histogram" name)
  | None ->
    let h = Stats.Hist.create () in
    add t ~name ~labels ~help (Histogram h);
    h

(* --- Snapshots ---------------------------------------------------------- *)

type hist_summary = {
  count : int;
  mean : float;
  min_v : float;
  max_v : float;
  quantiles : (float * float) list;
  buckets : (int * int) list;
}

let hist_of_summary h =
  Stats.Hist.of_buckets
    ~sum:(h.mean *. float_of_int h.count)
    ~min_v:h.min_v ~max_v:h.max_v h.buckets

let quantile h p =
  match List.assoc_opt p h.quantiles with
  | Some v -> v
  | None -> Stats.Hist.percentile (hist_of_summary h) p

type value =
  | Counter of int
  | Gauge of float
  | Hist of hist_summary

type sample = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : value;
}

let summarize ~points h =
  {
    count = Stats.Hist.count h;
    mean = Stats.Hist.mean h;
    min_v = Stats.Hist.min_v h;
    max_v = Stats.Hist.max_v h;
    quantiles = List.map (fun p -> (p, Stats.Hist.percentile h p)) points;
    buckets = Stats.Hist.buckets h;
  }

let read ~points = function
  | Counter_fn f -> Counter (f ())
  | Gauge_fn f -> Gauge (f ())
  | Histogram h -> Hist (summarize ~points h)

let compare_entry a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot t =
  List.rev t.rev_order
  |> List.stable_sort compare_entry
  |> List.map (fun e ->
         {
           s_name = e.name;
           s_labels = e.labels;
           s_help = e.help;
           s_value = read ~points:quantile_points e.instrument;
         })

(* --- Cross-registry merge ----------------------------------------------- *)

(* Exact merge: sum the raw buckets, rebuild a histogram, and re-query the
   quantile points of the first summary on the combined distribution. *)
let merge_hist a b =
  if a.count + b.count = 0 then a
  else begin
    let h = Stats.Hist.merge (hist_of_summary a) (hist_of_summary b) in
    let points =
      if a.quantiles <> [] then List.map fst a.quantiles
      else List.map fst b.quantiles
    in
    summarize ~points h
  end

let merge_value a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Hist x, Hist y -> Hist (merge_hist x y)
  | _ -> invalid_arg "Metrics.merge: mismatched sample types"

let merge snapshots =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun s ->
         let key = (s.s_name, s.s_labels) in
         match Hashtbl.find_opt tbl key with
         | None ->
           Hashtbl.replace tbl key s;
           order := key :: !order
         | Some prev ->
           Hashtbl.replace tbl key
             {
               prev with
               s_value = merge_value prev.s_value s.s_value;
               s_help = (if prev.s_help = "" then s.s_help else prev.s_help);
             }))
    snapshots;
  List.rev_map (Hashtbl.find tbl) !order
  |> List.stable_sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare a.s_labels b.s_labels
         | c -> c)

(* --- Exporters ---------------------------------------------------------- *)

let sample_to_json s =
  let base =
    [
      ("name", Json.Str s.s_name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels));
    ]
  in
  let value =
    match s.s_value with
    | Counter v -> [ ("type", Json.Str "counter"); ("value", Json.Int v) ]
    | Gauge v -> [ ("type", Json.Str "gauge"); ("value", Json.Float v) ]
    | Hist h ->
      (* 50. -> "p50", 99.9 -> "p999": drop the decimal point so quantile
         keys stay bare identifiers. *)
      let pkey p =
        "p"
        ^ String.concat ""
            (String.split_on_char '.' (Printf.sprintf "%g" p))
      in
      let qs = List.map (fun (p, v) -> (pkey p, Json.Float v)) h.quantiles in
      let bks =
        Json.List
          (List.map
             (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
             h.buckets)
      in
      [
        ("type", Json.Str "histogram");
        ( "value",
          Json.Obj
            ([
               ("count", Json.Int h.count);
               ("mean", Json.Float h.mean);
               ("max", Json.Float h.max_v);
             ]
            @ qs
            @ [ ("buckets", bks) ]) );
      ]
  in
  Json.Obj (base @ value)

let to_json t = Json.List (List.map sample_to_json (snapshot t))
let to_json_string ?pretty t = Json.to_string ?pretty (to_json t)
