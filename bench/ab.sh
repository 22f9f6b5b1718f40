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
# status it returns, and one line per end-to-end metric counting the
# pairs (base and work runs of one seed) in which the working tree was
# ahead, e.g. "decide_p50_us: ahead in 10 of 10 pairs".
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

status=0
$cmd --compare "$out/base.jsonl" "$out/work.jsonl" || status=$?

# Pairs won, per end-to-end metric: the metric names and directions come
# from BENCHMARK.json's "end_to_end" list (one entry a line), the values
# from the two result files, matched by seed.
awk '
  FNR == 1 { file++ }
  file == 1 {
    if ($0 ~ /"end_to_end"/) section = 1
    else if (section && $0 ~ /^[ \t]*\]/) section = 0
    if (section && match($0, /"name": *"[^"]*"/)) {
      name = substr($0, RSTART, RLENGTH)
      sub(/^"name": *"/, "", name); sub(/"$/, "", name)
      match($0, /"better": *"[^"]*"/)
      dir = substr($0, RSTART, RLENGTH)
      sub(/^"better": *"/, "", dir); sub(/"$/, "", dir)
      n++; names[n] = name; better[name] = dir
    }
    next
  }
  $0 !~ /"trace": *0[,}]/ { next }
  match($0, /"seed": *[0-9]+/) {
    seed = substr($0, RSTART, RLENGTH); sub(/^"seed": */, "", seed)
    seen[file, seed] = 1
    for (i = 1; i <= n; i++) {
      m = names[i]
      if (match($0, "\"" m "\": *[{]\"value\": *[-+0-9.eE]+")) {
        v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v)
        value[file, seed, m] = v + 0
      }
    }
  }
  END {
    for (i = 1; i <= n; i++) {
      m = names[i]; pairs = 0; ahead = 0
      for (key in seen) {
        split(key, k, SUBSEP)
        if (k[1] != 2 || !((3, k[2], m) in value) || !((2, k[2], m) in value))
          continue
        b = value[2, k[2], m]; w = value[3, k[2], m]; pairs++
        if ((better[m] == "lower" && w < b) || (better[m] == "higher" && w > b))
          ahead++
      }
      printf "%s: ahead in %d of %d pairs\n", m, ahead, pairs
    }
  }
' BENCHMARK.json "$out/base.jsonl" "$out/work.jsonl"

[ "$status" -eq 0 ] || exit "$status"
exit "$failed"
