#!/bin/sh
# Paired benchmark compare of a parent checkout against this one:
#
#   sh .github/bench_compare.sh PARENT_DIR OUT_DIR
#
# Run from the root of the change's checkout. PARENT_DIR is the root of
# the parent's checkout (a `git worktree add` of the base commit). Builds
# benchmark/main.exe on both sides, then runs every workload for seeds 1-3
# on both sides, alternating which side runs first, into
# OUT_DIR/parent/W-S.json and OUT_DIR/change/W-S.json (logs beside them).
# Last it runs `main.exe compare` over the two sets from this checkout's
# root, so bounds come from its BENCHMARK.json. The exit status is
# compare's: non-zero when any row regressed. BENCH_SECONDS sets the
# measured phase of each run (default 1).
set -eu
if [ $# -ne 2 ] || [ ! -f dune-project ] || [ ! -f "$1/dune-project" ]; then
  echo "usage: sh .github/bench_compare.sh PARENT_DIR OUT_DIR (from a checkout root)" >&2
  exit 2
fi
seconds=${BENCH_SECONDS:-1}
mkdir -p "$2/parent" "$2/change"
out=$(cd "$2" && pwd)
parent=$(cd "$1" && pwd)
change=$(pwd)
dune build --root "$change" ./benchmark/main.exe
(cd "$parent" && dune build --root . ./benchmark/main.exe)

# run SIDE DIR W S: one measured run of workload W, seed S, on one side.
run() {
  (cd "$2" && ./_build/default/benchmark/main.exe run --workload "$3" \
     --seed "$4" --seconds "$seconds" --out "$out/$1/$3-$4.json" \
     > "$out/$1/$3-$4.log" 2>&1) ||
    echo "$1 $3 seed $4: run exited non-zero (log: $out/$1/$3-$4.log)" >&2
}

first=parent
for w in bulk rpc churn wan; do
  for s in 1 2 3; do
    if [ "$first" = parent ]; then
      run parent "$parent" "$w" "$s"
      run change "$change" "$w" "$s"
      first=change
    else
      run change "$change" "$w" "$s"
      run parent "$parent" "$w" "$s"
      first=parent
    fi
  done
done

./_build/default/benchmark/main.exe compare "$out"/parent/*.json -- "$out"/change/*.json
