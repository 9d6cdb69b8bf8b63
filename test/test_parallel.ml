(* Multicore execution subsystem: work-stealing deque semantics, domain-pool
   ordered map and fault containment, the -j1 vs -jN determinism contract of
   the experiment runner, and the hot-path allocation machinery it pairs
   with (buffer pool, packet payload refcounting). *)

module Work_deque = Tas_parallel.Work_deque
module Domain_pool = Tas_parallel.Domain_pool
module Registry = Tas_experiments.Registry
module Run_opts = Tas_experiments.Run_opts
module Buf_pool = Tas_buffers.Buf_pool
module Packet = Tas_proto.Packet
module Addr = Tas_proto.Addr
module Tcp = Tas_proto.Tcp_header
module Sim = Tas_engine.Sim

(* --- Work_deque ------------------------------------------------------------ *)

let test_deque_lifo_pop_fifo_steal () =
  let d = Work_deque.create () in
  List.iter (Work_deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "size" 5 (Work_deque.size d);
  Alcotest.(check (option int)) "pop takes newest" (Some 5) (Work_deque.pop d);
  Alcotest.(check (option int)) "steal takes oldest" (Some 1)
    (Work_deque.steal d);
  Alcotest.(check (option int)) "steal next oldest" (Some 2)
    (Work_deque.steal d);
  Alcotest.(check (option int)) "pop next newest" (Some 4) (Work_deque.pop d);
  Alcotest.(check (option int)) "last element" (Some 3) (Work_deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Work_deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Work_deque.steal d)

let test_deque_grows_past_capacity_hint () =
  let d = Work_deque.create ~capacity:2 () in
  let n = 1000 in
  for i = 1 to n do
    Work_deque.push d i
  done;
  let sum = ref 0 and count = ref 0 in
  let rec drain () =
    match Work_deque.pop d with
    | Some v ->
      sum := !sum + v;
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every push popped" n !count;
  Alcotest.(check int) "values intact" (n * (n + 1) / 2) !sum

let test_deque_concurrent_steal_exactly_once () =
  (* All pushes happen before the thieves start (the pool's batch
     discipline); then 3 stealers race the owner's pops. Every element must
     surface exactly once across all four participants. *)
  let d = Work_deque.create () in
  let n = 20_000 in
  for i = 1 to n do
    Work_deque.push d i
  done;
  let go = Atomic.make false in
  let stealer () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let got = ref [] in
    let rec loop () =
      match Work_deque.steal d with
      | Some v ->
        got := v :: !got;
        loop ()
      | None -> if Work_deque.size d > 0 then loop ()
    in
    loop ();
    !got
  in
  let thieves = Array.init 3 (fun _ -> Domain.spawn stealer) in
  Atomic.set go true;
  let mine = ref [] in
  let rec pop_all () =
    match Work_deque.pop d with
    | Some v ->
      mine := v :: !mine;
      pop_all ()
    | None -> ()
  in
  pop_all ();
  let stolen = Array.to_list (Array.map Domain.join thieves) in
  let all = List.concat (!mine :: stolen) in
  Alcotest.(check int) "element count conserved" n (List.length all);
  let sorted = List.sort compare all in
  Alcotest.(check bool) "each element exactly once" true
    (List.equal ( = ) sorted (List.init n (fun i -> i + 1)))

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
        (out2 = Array.init 100 (fun i -> i + 1)))

let test_pool_jobs_one_runs_inline () =
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      let out = Domain_pool.map pool ~f:(fun i -> 2 * i) [| 1; 2; 3 |] in
      Alcotest.(check bool) "inline map" true (out = [| 2; 4; 6 |]))

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
      (* ...and the pool survives both faulty batches without deadlock. *)
      let out2 = Domain_pool.map pool ~f:(fun i -> i + 1) [| 1; 2; 3; 4 |] in
      Alcotest.(check bool) "pool alive after exceptions" true
        (out2 = [| 2; 3; 4; 5 |]))

(* --- Experiment-runner determinism: -j1 vs -j4 ----------------------------- *)

(* Cheap experiments keep the test fast; the contract is the same for all. *)
let determinism_ids = [ "tm"; "sp"; "x3" ]

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
  ignore (Registry.run_selection ~quick:true ~jobs entries fmt);
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
     artifact paths differ because each run writes to its own temp dir. *)
  Str.global_replace (Str.regexp "([0-9.]+s)") "(T)" text
  |> Str.global_replace
       (Str.regexp "Ran [0-9]+ experiments in .*$")
       "Ran (summary)"
  |> Str.global_replace
       (Str.regexp "# artifact: .*/\\(BENCH_[a-z0-9]+\\.json\\)")
       "# artifact: \\1"

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
    determinism_ids

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
    Alcotest.test_case "deque: LIFO pop, FIFO steal" `Quick
      test_deque_lifo_pop_fifo_steal;
    Alcotest.test_case "deque: grows past capacity hint" `Quick
      test_deque_grows_past_capacity_hint;
    Alcotest.test_case "deque: concurrent steal exactly-once" `Quick
      test_deque_concurrent_steal_exactly_once;
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
