#!/usr/bin/env bash
# Same-host pair comparison of two revisions on this benchmark:
#
#   bash benchmark/ab.sh <base-rev> [<change-rev>]      # default change: HEAD
#
# Exports both revisions with git archive, puts this working tree's
# benchmark/ and BENCHMARK.json into both so the two sides run identical
# benchmark code, and builds each side once. Then, for every workload, it
# runs PAIRS pairs of base and change at the same seed, alternating which
# side runs first, and prints benchmark/compare's verdict table; the exit
# status is compare's.
#
# Environment: PAIRS (default 10), SEED (42; 7 is the held-out seed),
# SECONDS_PER_RUN (BENCHMARK.json's run_seconds), WORKLOADS (all of
# BENCHMARK.json's), OUT (.bench_build/ab). Needs git, go and python3.
set -euo pipefail

base=${1:?usage: benchmark/ab.sh <base-rev> [<change-rev>]}
change=${2:-HEAD}
root=$(git rev-parse --show-toplevel)
cd "$root"

field() { python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); print($1)"; }
pairs=${PAIRS:-10}
seed=${SEED:-42}
secs=${SECONDS_PER_RUN:-$(field 'b["run_seconds"]')}
workloads=${WORKLOADS:-$(field '" ".join(w["name"] for w in b["workloads"])')}
out=${OUT:-$root/.bench_build/ab}

export GOCACHE=$root/.bench_build/gocache
export GOPATH=$root/.bench_build/gopath
export XDG_CONFIG_HOME=$root/.bench_build/config
export GOTOOLCHAIN=local

rm -rf "$out"
mkdir -p "$out/bin"
for side in base change; do
	rev=$base
	[[ $side == change ]] && rev=$change
	mkdir -p "$out/$side"
	git archive "$rev" | tar -x -C "$out/$side"
	rm -rf "$out/$side/benchmark"
	tar --exclude=.bench_build -cf - benchmark BENCHMARK.json | tar -x -C "$out/$side"
	(cd "$out/$side/benchmark" && go build -o "$out/bin/$side" .)
	echo "built $side ($(git rev-parse --short "$rev"))" >&2
done

results=$out/results.jsonl
: >"$results"
for w in $workloads; do
	for ((i = 1; i <= pairs; i++)); do
		order="base change"
		((i % 2)) || order="change base"
		for side in $order; do
			line=$(cd "$out/$side" && "$out/bin/$side" -workload "$w" -seed "$seed" -seconds "$secs" -trace 0 | tail -n 1)
			printf '{"side":"%s","workload":"%s","pair":%d,"result":%s}\n' "$side" "$w" "$i" "$line" >>"$results"
		done
		echo "$w: pair $i of $pairs done" >&2
	done
done

cd "$root/benchmark"
go run ./compare -bench "$root/BENCHMARK.json" -results "$results"
