let bench_dir_override = ref None
let set_bench_dir d = bench_dir_override := Some d

let bench_dir () =
  match !bench_dir_override with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "TAS_BENCH_DIR" with
    | Some d when d <> "" -> d
    | _ -> ".")

let pool_setting = ref (Tas_parallel.Domain_pool.create ~jobs:1)
let set_pool p = pool_setting := p
let pool () = !pool_setting
