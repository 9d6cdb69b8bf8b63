(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and runs Bechamel microbenchmarks of the fast-path
   primitives.

   Usage:
     bench/main.exe [all]            run all experiments (full parameters)
     bench/main.exe quick            run all experiments (reduced sweeps)
     bench/main.exe f4 t1 ...        run selected experiments by id
     bench/main.exe micro            run the Bechamel microbenchmarks
     bench/main.exe perf [quick] [--check] [--baseline FILE]
                                     hot-path perf suite (+ regression gate)
     bench/main.exe list             list experiment ids

   Any form accepts -j N / --jobs N / --jobs=N to run the selected
   experiments on N domains; output stays in submission order. *)

module Registry = Tas_experiments.Registry
module Perf_bench = Tas_experiments.Perf_bench

(* --- Bechamel microbenchmarks of fast-path primitives -------------------- *)

let microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  let packet =
    let tcp =
      (Tas_proto.Tcp_header.make ~ts:(42, 41) ~src_port:1234 ~dst_port:80
         ~seq:1000 ~ack:2000 ~flags:Tas_proto.Tcp_header.data_flags
         ~window:65535 ())
    in
    Tas_proto.Packet.make ~src_mac:(Tas_proto.Addr.host_mac 1)
      ~dst_mac:(Tas_proto.Addr.host_mac 2)
      ~src_ip:(Tas_proto.Addr.host_ip 1) ~dst_ip:(Tas_proto.Addr.host_ip 2)
      ~tcp ~payload:(Bytes.create 64) ()
  in
  let wire = Tas_proto.Packet.to_wire packet in
  let ring = Tas_buffers.Ring_buffer.create 65536 in
  let chunk = Bytes.create 1460 in
  let scratch = Bytes.create 1460 in
  let spsc = Tas_buffers.Spsc_queue.create 1024 in
  let ooo = Tas_buffers.Ooo_interval.create () in
  let tuple = Tas_proto.Packet.four_tuple_at_receiver packet in
  let table = Tas_core.Flow_table.create () in
  let bucket =
    let sim = Tas_engine.Sim.create () in
    Tas_core.Rate_bucket.create sim (Tas_core.Rate_bucket.Rate 10e9)
      ~burst_bytes:4096
  in
  let flow =
    Tas_core.Flow_state.create
      ~arena:(Tas_core.Flow_arena.create ~capacity:1 ())
      ~pool:(Tas_buffers.Ring_buffer.Pool.create ()) ~opaque:1 ~context:0 ~bucket ~rx_buf_size:4096
      ~tx_buf_size:4096 ~local_port:80 ~peer_ip:(Tas_proto.Addr.host_ip 2)
      ~peer_port:1234 ~peer_mac:(Tas_proto.Addr.host_mac 2) ~tx_iss:1000
      ~rx_next:2000 ~window:65535 ~peer_wscale:4 ()
  in
  Tas_core.Flow_table.add table tuple flow;
  let tests =
    [
      Test.make ~name:"packet wire serialize"
        (Staged.stage (fun () -> ignore (Tas_proto.Packet.to_wire packet)));
      Test.make ~name:"packet wire parse"
        (Staged.stage (fun () -> ignore (Tas_proto.Packet.of_wire wire)));
      Test.make ~name:"tcp checksum validate"
        (Staged.stage (fun () -> ignore (Tas_proto.Packet.tcp_checksum_ok wire)));
      Test.make ~name:"flow hash"
        (Staged.stage (fun () -> ignore (Tas_proto.Packet.flow_hash packet)));
      Test.make ~name:"flow table lookup"
        (Staged.stage (fun () ->
             ignore (Tas_core.Flow_table.find table tuple)));
      Test.make ~name:"ring push+pop 1460B"
        (Staged.stage (fun () ->
             ignore (Tas_buffers.Ring_buffer.push ring chunk ~off:0 ~len:1460);
             ignore
               (Tas_buffers.Ring_buffer.pop ring ~dst:scratch ~dst_off:0
                  ~len:1460)));
      Test.make ~name:"spsc push+pop"
        (Staged.stage (fun () ->
             ignore (Tas_buffers.Spsc_queue.try_push spsc 42);
             ignore (Tas_buffers.Spsc_queue.try_pop spsc)));
      Test.make ~name:"ooo in-order verdict"
        (Staged.stage (fun () ->
             ignore
               (Tas_buffers.Ooo_interval.handle ooo ~exp:0 ~window:65536
                  ~seg_start:0 ~seg_len:1460)));
      Test.make ~name:"rate bucket budget"
        (Staged.stage (fun () ->
             ignore
               (Tas_core.Rate_bucket.tx_budget bucket ~in_flight:0 ~want:1460)));
    ]
  in
  List.iter
    (fun test ->
      let res =
        Benchmark.all
          (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ())
          [ Instance.monotonic_clock ]
          (Test.make_grouped ~name:"" [ test ])
      in
      Hashtbl.iter
        (fun name raws ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Instance.monotonic_clock raws
          with
          | exception _ -> Printf.printf "  %-28s (analysis failed)\n" name
          | ols -> (
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "  %-28s %8.1f ns/op\n%!" name est
            | _ -> Printf.printf "  %-28s (no estimate)\n%!" name))
        res)
    tests

(* --- Entry point ----------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Pull -j N / --jobs N / --jobs=N out of the argument list. *)
let extract_jobs args =
  let jobs = ref 1 in
  let parse what n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> jobs := v
    | _ ->
      Printf.eprintf "invalid %s value: %s\n" what n;
      exit 2
  in
  let rec strip acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest ->
      parse "--jobs" n;
      strip acc rest
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | s :: rest when starts_with ~prefix:"--jobs=" s ->
      parse "--jobs" (String.sub s 7 (String.length s - 7));
      strip acc rest
    | s :: rest -> strip (s :: acc) rest
  in
  let rest = strip [] args in
  (rest, !jobs)

let run_perf args fmt =
  let quick = List.mem "quick" args in
  let check = List.mem "--check" args in
  let baseline =
    let rec find = function
      | "--baseline" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    match find args with
    | Some p -> Some p
    | None -> if check then Some "bench/baseline_perf.json" else None
  in
  if not (Perf_bench.run ~quick ?baseline fmt) then exit 1

let () =
  let args, jobs = extract_jobs (List.tl (Array.to_list Sys.argv)) in
  Tas_experiments.Run_opts.set_jobs jobs;
  let fmt = Format.std_formatter in
  (match args with
  | [] | [ "all" ] ->
    Registry.run_all ~jobs fmt;
    print_endline "\n=== Microbenchmarks: fast-path primitives ===";
    microbenchmarks ()
  | [ "quick" ] | [ "all"; "quick" ] -> Registry.run_all ~quick:true ~jobs fmt
  | "perf" :: rest -> run_perf rest fmt
  | [ "list" ] ->
    List.iter
      (fun e -> Printf.printf "%-4s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  | [ "micro" ] ->
    print_endline "=== Microbenchmarks: fast-path primitives ===";
    microbenchmarks ()
  | ids ->
    let entries =
      List.filter_map
        (fun id ->
          match Registry.find id with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment id: %s\n" id;
            None)
        ids
    in
    Registry.run_selection ~jobs entries fmt);
  Format.pp_print_flush fmt ()
