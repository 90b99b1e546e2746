#!/bin/sh
# Compares the sentinel hot-loop benchmarks (BenchmarkSimCABAPVC,
# BenchmarkSimHotLoop and the use-case overhead canary
# BenchmarkSimPrefetchPVC) against the ns/op recorded in
# BENCH_sim.json and fails if any is more than 10% slower. Numbers only
# compare on a matching host, so it first fails if this run's
# gomaxprocs/num_cpu differ from the baseline's recorded meta.
# Run via `make bench-compare` from the repository root. Does not rewrite
# the baseline — that is `make bench`'s job.
set -e
cd "$(dirname "$0")/.."

if [ ! -f BENCH_sim.json ]; then
  echo "FAIL: BENCH_sim.json missing; run 'make bench' to record a baseline" >&2
  exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Same fixed iteration count as scripts/bench.sh so the numbers are
# comparable with the recorded baseline. Both sides are minimums over
# repeated runs (the baseline records min-of-3): wall-clock on shared
# hosts swings ±15% run to run while the floor is stable, and only a
# floor-vs-floor comparison makes a 10% threshold usable.
go test -run '^$' \
  -bench 'BenchmarkSimCABAPVC$|BenchmarkSimHotLoop$|BenchmarkSimPrefetchPVC$' \
  -benchtime 5x -count 5 . | tee "$tmp"

# Host check: the baseline's meta against this run's, derived the way
# scripts/bench.sh records them (GOMAXPROCS from the -N suffix Go appends
# to benchmark names, absent when it is 1; the online CPU count).
meta() {
  awk -F'[,:{} ]+' -v k="\"$1\"" '/"meta"/ {
      for (i = 1; i <= NF; i++) if ($i == k) print $(i+1)
    }' BENCH_sim.json
}
base_procs=$(meta gomaxprocs)
base_cpus=$(meta num_cpu)
if [ -z "$base_procs" ] || [ -z "$base_cpus" ]; then
  echo "FAIL: BENCH_sim.json has no gomaxprocs/num_cpu meta; run 'make bench' to record a baseline" >&2
  exit 1
fi
cur_procs=$(awk '/^Benchmark/ { if (match($1, /-[0-9]+$/)) { print substr($1, RSTART+1); exit } }' "$tmp")
cur_procs=${cur_procs:-1}
cur_cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo null)
if [ "$base_procs" != "$cur_procs" ] || [ "$base_cpus" != "$cur_cpus" ]; then
  echo "FAIL: host mismatch: baseline BENCH_sim.json has gomaxprocs=$base_procs num_cpu=$base_cpus, this run has gomaxprocs=$cur_procs num_cpu=$cur_cpus; run 'make bench' on this host to record a comparable baseline" >&2
  exit 1
fi

for name in BenchmarkSimCABAPVC BenchmarkSimHotLoop BenchmarkSimPrefetchPVC; do
  base=$(awk -F'[,: ]+' -v n="\"$name\"" '
    $0 ~ n {
      for (i = 1; i <= NF; i++) if ($i == "\"ns_per_op\"") print $(i+1)
    }' BENCH_sim.json | tr -d '}')
  new=$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" {
      for (i = 2; i <= NF; i++)
        if ($i == "ns/op" && (best == "" || $(i-1)+0 < best+0)) best = $(i-1)
    } END { if (best != "") print best }' "$tmp")
  if [ -z "$base" ]; then
    echo "FAIL: $name has no ns_per_op baseline in BENCH_sim.json" >&2
    exit 1
  fi
  if [ -z "$new" ]; then
    echo "FAIL: $name produced no ns/op (benchmark missing or renamed?)" >&2
    exit 1
  fi
  # Integer arithmetic: regression iff new > base * 1.10.
  if [ "$(printf '%.0f' "$new")" -gt "$((${base%.*} * 110 / 100))" ]; then
    echo "FAIL: $name regressed >10%: baseline ${base} ns/op, now ${new} ns/op" >&2
    exit 1
  fi
  echo "ok: $name ${base} -> ${new} ns/op (within 10%)"
done
