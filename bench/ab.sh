#!/bin/sh
# A/B the working tree against a git revision on one workload of the
# repository benchmark (BENCHMARK.json, bench/suite).
#
#   bench/ab.sh WORKLOAD [PAIRS] [BASE]        (make bench-ab wraps it)
#
# BASE (default HEAD) is exported with git archive into
# .bench_build/ab-base (a plain copy of its files, no worktree) and
# removed on exit.  Pair i (1..PAIRS, default 10) runs the
# BENCHMARK.json command once in each tree with --seed i, end to end, for
# run_seconds; odd pairs run BASE first, even pairs the working tree first,
# so a drift in host speed does not favour either side.  The result lines
# go to .bench_build/ab/base.jsonl and .bench_build/ab/work.jsonl (their
# printed reports to runs.log beside them), and the script ends with the
# suite's --compare of the two (A = BASE, B = working tree), whose exit
# status it returns.
set -eu

workload=${1:?usage: bench/ab.sh WORKLOAD [PAIRS] [BASE]}
pairs=${2:-10}
base=${3:-HEAD}

root=$(git rev-parse --show-toplevel)
cd "$root"

# The command and run length, read from BENCHMARK.json's one-line fields.
cmd=$(sed -n 's/^ *"command": *\[\(.*\)\], *$/\1/p' BENCHMARK.json | tr -d '",')
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*$/\1/p' BENCHMARK.json)
if [ -z "$cmd" ] || [ -z "$seconds" ]; then
  echo "bench/ab.sh: cannot read command/run_seconds from BENCHMARK.json" >&2
  exit 2
fi

out=$root/.bench_build/ab
tree=$root/.bench_build/ab-base
mkdir -p "$out"
: > "$out/base.jsonl"
: > "$out/work.jsonl"
: > "$out/runs.log"

rm -rf "$tree"
mkdir -p "$tree"
git archive "$base" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT
trap 'exit 130' INT TERM

# A run whose correctness check fails still appends its result line; the
# pairs go on and the script fails at the end.
failed=0
run() { # run TREE SEED OUT
  echo "== $(basename "$3" .jsonl) seed $2" >&2
  (cd "$1" && $cmd --workload "$workload" --seed "$2" --seconds "$seconds" \
     --trace 0 --json "$3" >> "$out/runs.log") || {
    echo "bench/ab.sh: $(basename "$3" .jsonl) seed $2 failed" >&2
    failed=1
  }
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run "$tree" "$i" "$out/base.jsonl"
    run "$root" "$i" "$out/work.jsonl"
  else
    run "$root" "$i" "$out/work.jsonl"
    run "$tree" "$i" "$out/base.jsonl"
  fi
  i=$((i + 1))
done

$cmd --compare "$out/base.jsonl" "$out/work.jsonl"
exit "$failed"
