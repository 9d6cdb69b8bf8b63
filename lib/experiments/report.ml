module J = Tas_telemetry.Json

type gate = { name : string; ok : bool; observed : string; expected : string }

(* Structured mirror of everything an experiment prints. While an artifact
   is open (Registry wraps each run), section/table/series/kv/gate/note
   append a JSON item alongside the text output, so BENCH_<id>.json artifacts need no
   per-experiment changes. *)
module Artifact = struct
  type t = { mutable rev : J.t list; mutable failed : gate list }

  (* Domain-local: parallel experiment jobs (Registry with --jobs) each
     capture an independent artifact on their own domain. *)
  let key : t option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let current () = Domain.DLS.get key
  let start () = current () := Some { rev = []; failed = [] }

  let add j =
    match !(current ()) with None -> () | Some a -> a.rev <- j :: a.rev

  let fail g =
    match !(current ()) with
    | None -> ()
    | Some a -> a.failed <- g :: a.failed

  let finish () =
    let c = current () in
    match !c with
    | None -> (J.List [], [])
    | Some a ->
      c := None;
      (J.List (List.rev a.rev), List.rev a.failed)

  let attach name j = add (J.Obj [ (name, j) ])

  (* Timelines are kept out of the BENCH body: they can be large and have
     their own artifact file (TIMELINE_<id>.json). Same domain-local
     discipline as the main artifact. *)
  let tl_key : (string * J.t) list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let add_timeline ~name j =
    let c = Domain.DLS.get tl_key in
    c := (name, j) :: !c

  let take_timelines () =
    let c = Domain.DLS.get tl_key in
    let tls = List.rev !c in
    c := [];
    tls
end

let attach = Artifact.attach
let add_timeline = Artifact.add_timeline

let section fmt title =
  Artifact.add (J.Obj [ ("section", J.Str title) ]);
  Format.fprintf fmt "@.=== %s ===@." title

let table fmt ~header ~rows =
  Artifact.add
    (J.Obj
       [
         ( "table",
           J.Obj
             [
               ("header", J.List (List.map (fun h -> J.Str h) header));
               ( "rows",
                 J.List
                   (List.map
                      (fun row -> J.List (List.map (fun c -> J.Str c) row))
                      rows) );
             ] );
       ]);
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    Format.fprintf fmt "  ";
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Format.fprintf fmt "%-*s  " w cell)
      row;
    Format.fprintf fmt "@."
  in
  print_row header;
  Format.fprintf fmt "  %s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows

let series fmt ~name points =
  Artifact.add
    (J.Obj
       [
         ( "series",
           J.Obj
             [
               ("name", J.Str name);
               ( "points",
                 J.List
                   (List.map
                      (fun (x, y) ->
                        J.Obj [ ("x", J.Str x); ("y", J.Float y) ])
                      points) );
             ] );
       ]);
  Format.fprintf fmt "  %s:@." name;
  List.iter (fun (x, y) -> Format.fprintf fmt "    %-12s %.4g@." x y) points

let kv fmt k v =
  Artifact.add (J.Obj [ ("kv", J.Obj [ ("key", J.Str k); ("value", J.Str v) ]) ]);
  Format.fprintf fmt "  %s: %s@." k v

let gate fmt ~name ~ok ~observed ~expected =
  Artifact.add
    (J.Obj
       [
         ( "gate",
           J.Obj
             [
               ("name", J.Str name);
               ("ok", J.Bool ok);
               ("observed", J.Str observed);
               ("expected", J.Str expected);
             ] );
       ]);
  if not ok then Artifact.fail { name; ok; observed; expected };
  Format.fprintf fmt "  gate %s: %s (observed %s; expected %s)@." name
    (if ok then "ok" else "FAIL")
    observed expected

let note fmt s =
  Artifact.add (J.Obj [ ("note", J.Str s) ]);
  Format.fprintf fmt "  # %s@." s

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let mops v = Printf.sprintf "%.2f" (v /. 1e6)
let pct v = Printf.sprintf "%.1f%%" v
