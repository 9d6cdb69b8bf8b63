(* Multicore execution subsystem: the domain pool's ordered map, nesting
   and fault containment, the -j1 vs -jN determinism contract of the
   experiment runner, and the hot-path allocation machinery it pairs with
   (buffer pool, packet payload refcounting). *)

module Domain_pool = Tas_parallel.Domain_pool
module Registry = Tas_experiments.Registry
module Run_opts = Tas_experiments.Run_opts
module Buf_pool = Tas_buffers.Buf_pool
module Packet = Tas_proto.Packet
module Addr = Tas_proto.Addr
module Tcp = Tas_proto.Tcp_header
module Sim = Tas_engine.Sim

(* --- Domain_pool ----------------------------------------------------------- *)

let test_pool_map_submission_order () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "pool size" 4 (Domain_pool.jobs pool);
      let inputs = Array.init 100 (fun i -> i) in
      let out = Domain_pool.map pool ~f:(fun i -> i * i) inputs in
      Alcotest.(check bool) "results at submission indices" true
        (out = Array.init 100 (fun i -> i * i));
      (* A second batch on the same pool works: workers return to idle. *)
      let out2 = Domain_pool.map pool ~f:(fun i -> i + 1) inputs in
      Alcotest.(check bool) "pool reusable across batches" true
        (out2 = Array.init 100 (fun i -> i + 1));
      (* Jobs that map on their own pool: each inner batch comes back in
         its own submission order, and outer and inner jobs together run
         on no more domains than the pool has participants. [outer] marks
         the outer job a domain is inside: a job must never start inside
         another batch's job, only inside its own submitter or on an idle
         domain. *)
      let self () = (Domain.self () :> int) in
      let outer = Domain.DLS.new_key (fun () -> ref (-1)) in
      let nested =
        Domain_pool.map pool
          ~f:(fun i ->
            let mark = Domain.DLS.get outer in
            let clean = !mark = -1 in
            mark := i;
            let inner =
              Domain_pool.map pool
                ~f:(fun j ->
                  let m = !(Domain.DLS.get outer) in
                  Unix.sleepf 0.001;
                  (self (), (10 * i) + j, m = -1 || m = i))
                (Array.init 8 Fun.id)
            in
            mark := -1;
            (self (), clean, inner))
          (Array.init 8 Fun.id)
      in
      Array.iteri
        (fun i (_, clean, inner) ->
          Alcotest.(check bool) "outer job started on an idle domain" true
            clean;
          Alcotest.(check (array int)) "inner results in submission order"
            (Array.init 8 (fun j -> (10 * i) + j))
            (Array.map (fun (_, v, _) -> v) inner);
          Alcotest.(check bool) "inner jobs ran only beside their own batch"
            true
            (Array.for_all (fun (_, _, ok) -> ok) inner))
        nested;
      let ids =
        Array.to_list nested
        |> List.concat_map (fun (o, _, inner) ->
               o :: Array.to_list (Array.map (fun (d, _, _) -> d) inner))
        |> List.sort_uniq compare
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains ran outer and inner jobs (<= 4)"
           (List.length ids))
        true
        (List.length ids <= 4))

let test_pool_jobs_one_runs_inline () =
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      let out = Domain_pool.map pool ~f:(fun i -> 2 * i) [| 1; 2; 3 |] in
      Alcotest.(check bool) "inline map" true (out = [| 2; 4; 6 |]);
      let caller = Domain.self () in
      let nested =
        Domain_pool.map pool
          ~f:(fun i ->
            Domain_pool.map pool
              ~f:(fun j -> (Domain.self () = caller, i + j))
              [| 10; 20 |])
          [| 1; 2 |]
      in
      Alcotest.(check bool) "nested map runs inline on the caller" true
        (nested
        = [| [| (true, 11); (true, 21) |]; [| (true, 12); (true, 22) |] |]))

exception Boom of int

let test_pool_exceptions_contained () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let inputs = Array.init 32 (fun i -> i) in
      let out =
        Domain_pool.map_result pool
          ~f:(fun i -> if i mod 2 = 1 then raise (Boom i) else i * 10)
          inputs
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
            Alcotest.(check bool) "even index ok" true (i mod 2 = 0 && v = i * 10)
          | Error (Boom j) ->
            Alcotest.(check bool) "odd index raised its own error" true
              (i mod 2 = 1 && j = i)
          | Error e -> raise e)
        out;
      (* [map] re-raises the first error by submission order... *)
      (match Domain_pool.map pool ~f:(fun i -> raise (Boom i)) inputs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 0 -> ()
      | exception e -> raise e);
      (* A raising job inside a nested batch is contained at its own
         index of the inner result... *)
      let nested =
        Domain_pool.map pool
          ~f:(fun i ->
            Domain_pool.map_result pool
              ~f:(fun j -> if j = i then raise (Boom j) else j)
              (Array.init 4 Fun.id))
          (Array.init 4 Fun.id)
      in
      Array.iteri
        (fun i inner ->
          Array.iteri
            (fun j r ->
              match r with
              | Ok v ->
                Alcotest.(check bool) "nested: other indices ok" true
                  (j <> i && v = j)
              | Error (Boom k) ->
                Alcotest.(check bool) "nested: error at its own index" true
                  (j = i && k = i)
              | Error e -> raise e)
            inner)
        nested;
      (* ...and the pool survives every faulty batch without deadlock. *)
      let out2 = Domain_pool.map pool ~f:(fun i -> i + 1) [| 1; 2; 3; 4 |] in
      Alcotest.(check bool) "pool alive after exceptions" true
        (out2 = [| 2; 3; 4; 5 |]))

(* --- Experiment-runner determinism: -j1 vs -j4 ----------------------------- *)

(* Install a [jobs]-participant pool as the run's pool for the duration of
   [f], the way [tas_run -j] does. *)
let with_run_pool ~jobs f =
  let prev = Run_opts.pool () in
  Domain_pool.with_pool ~jobs (fun pool ->
      Run_opts.set_pool pool;
      Fun.protect ~finally:(fun () -> Run_opts.set_pool prev) f)

(* Cheap experiments keep the test fast; the contract is the same for all.
   [ch] fans its schedules out on the run's pool from inside its own job,
   so the nested path is covered too. *)
let determinism_ids = [ "dg"; "x3"; "ch" ]

let run_into_dir ~jobs dir =
  let entries =
    List.filter_map Registry.find determinism_ids |> fun es ->
    Alcotest.(check int) "test ids resolve" (List.length determinism_ids)
      (List.length es);
    es
  in
  Run_opts.set_bench_dir dir;
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  with_run_pool ~jobs (fun () ->
      ignore (Registry.run_selection ~quick:true entries fmt));
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Everything before the trailing ["timing"] key falls under the determinism
   contract; timing carries wall-clock and may differ. *)
let stable_prefix artifact =
  match Str.search_forward (Str.regexp_string "\"timing\"") artifact 0 with
  | i -> String.sub artifact 0 i
  | exception Not_found -> artifact

let strip_wall_clock text =
  (* Per-entry "  (1.2s)" lines and the batch summary line are wall-clock;
     artifact and timeline paths differ because each run writes to its own
     temp dir. *)
  Str.global_replace (Str.regexp "([0-9.]+s)") "(T)" text
  |> Str.global_replace
       (Str.regexp "Ran [0-9]+ experiments in .*$")
       "Ran (summary)"
  |> Str.global_replace
       (Str.regexp
          "# \\(artifact\\|timeline\\): .*/\\([A-Z]+_[a-z0-9]+\\.json\\)")
       "# \\1: \\2"

let test_parallel_output_matches_serial () =
  let tmp tag =
    let d = Filename.temp_file ("tas_par_" ^ tag) "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let dir1 = tmp "j1" and dir4 = tmp "j4" in
  let out1 = run_into_dir ~jobs:1 dir1 in
  let out4 = run_into_dir ~jobs:4 dir4 in
  Run_opts.set_bench_dir ".";
  Alcotest.(check string) "captured text identical up to wall-clock"
    (strip_wall_clock out1) (strip_wall_clock out4);
  List.iter
    (fun id ->
      let name = Printf.sprintf "BENCH_%s.json" id in
      let a1 = read_file (Filename.concat dir1 name) in
      let a4 = read_file (Filename.concat dir4 name) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: timing key present" name)
        true
        (stable_prefix a1 <> a1);
      Alcotest.(check string)
        (Printf.sprintf "%s: artifact identical before timing" name)
        (stable_prefix a1) (stable_prefix a4))
    determinism_ids;
  Alcotest.(check string) "TIMELINE_dg.json identical"
    (read_file (Filename.concat dir1 "TIMELINE_dg.json"))
    (read_file (Filename.concat dir4 "TIMELINE_dg.json"));
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ dir1; dir4 ]

(* --- Buf_pool -------------------------------------------------------------- *)

let test_buf_pool_exact_length_reuse () =
  let p = Buf_pool.create () in
  let b = Buf_pool.take p 512 in
  Alcotest.(check int) "requested length" 512 (Bytes.length b);
  Buf_pool.give p b;
  let b' = Buf_pool.take p 300 in
  Alcotest.(check bool) "different length misses the 512 class" false (b == b');
  let b'' = Buf_pool.take p 512 in
  Alcotest.(check bool) "exact length hits" true (b == b'');
  let s = Buf_pool.stats p in
  Alcotest.(check int) "one hit" 1 s.Buf_pool.hits;
  Alcotest.(check int) "three takes" 3 s.Buf_pool.takes

let test_buf_pool_small_buffers_bypass () =
  let p = Buf_pool.create () in
  Alcotest.(check bool) "min_len sane" true (Buf_pool.min_len > 0);
  let small = Buf_pool.take p (Buf_pool.min_len - 1) in
  Buf_pool.give p small;
  let small' = Buf_pool.take p (Buf_pool.min_len - 1) in
  Alcotest.(check bool) "small buffers never recycled" false (small == small');
  let s = Buf_pool.stats p in
  Alcotest.(check int) "small gives not recorded" 0 s.Buf_pool.gives;
  Alcotest.(check bool) "take 0 is the empty buffer" true
    (Buf_pool.take p 0 == Bytes.empty)

(* --- Packet payload refcounting -------------------------------------------- *)

let test_packet_refcount () =
  let payload = Bytes.create 512 in
  let recycled = ref [] in
  let pool =
    Packet.Pool.create ~recycle:(fun b -> recycled := b :: !recycled) ()
  in
  let pooled_pkt payload =
    let pkt = Packet.take pool in
    Packet.fill pkt ~src_mac:1 ~dst_mac:2 ~src_ip:(Addr.host_ip 1)
      ~dst_ip:(Addr.host_ip 2) ~ecn:Tas_proto.Ipv4_header.Ect0 ~payload;
    pkt
  in
  let pkt = pooled_pkt payload in
  Packet.release pkt;
  Alcotest.(check int) "unpooled release surfaces nothing" 0
    (List.length !recycled);
  let pkt = pooled_pkt payload in
  Packet.mark_pooled pkt;
  Packet.retain pkt;
  Packet.release pkt;
  Alcotest.(check int) "first release keeps the buffer" 0
    (List.length !recycled);
  Packet.release pkt;
  (match !recycled with
  | [ b ] -> Alcotest.(check bool) "last release surfaces the payload" true
      (b == payload)
  | _ -> Alcotest.fail "expected the payload back");
  Alcotest.check_raises "a further release is refused"
    (Invalid_argument
       "Packet.release: packet already released (no reference left)")
    (fun () -> Packet.release pkt);
  recycled := [];
  let empty = pooled_pkt Bytes.empty in
  Packet.mark_pooled empty;
  Packet.release empty;
  Alcotest.(check int) "empty payloads never pooled" 0 (List.length !recycled)

(* --- Sim post -------------------------------------------------------------- *)

let test_sim_post_ordering () =
  let sim = Sim.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.post sim 10 (note "a");
  ignore (Sim.schedule sim 10 (note "b"));
  Sim.post_at sim 10 (note "c");
  Sim.post sim 5 (note "d");
  Sim.run sim;
  Alcotest.(check (list string)) "same-time events fire in scheduling order"
    [ "d"; "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "fired counter" 4 (Sim.events_fired sim);
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Sim.post: negative delay") (fun () ->
      Sim.post sim (-1) ignore)

let suite =
  [
    Alcotest.test_case "pool: map in submission order" `Quick
      test_pool_map_submission_order;
    Alcotest.test_case "pool: jobs=1 inline" `Quick test_pool_jobs_one_runs_inline;
    Alcotest.test_case "pool: exceptions contained, pool survives" `Quick
      test_pool_exceptions_contained;
    Alcotest.test_case "runner: -j4 output identical to -j1" `Quick
      test_parallel_output_matches_serial;
    Alcotest.test_case "buf pool: exact-length reuse" `Quick
      test_buf_pool_exact_length_reuse;
    Alcotest.test_case "buf pool: small-buffer bypass" `Quick
      test_buf_pool_small_buffers_bypass;
    Alcotest.test_case "packet: payload refcount" `Quick test_packet_refcount;
    Alcotest.test_case "sim: post ordering + fired counter" `Quick
      test_sim_post_ordering;
  ]
