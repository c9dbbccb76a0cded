#!/usr/bin/env bash
# Measures the run-to-run spread of the metrics on one commit. Run it
# from the repository root:
#
#   bash benchmark/spread.sh [runs] [first-seed]
#
# Defaults: 10 runs of every workload with seeds 1, 2, ..., 10. Runs go
# round the workloads, so a slow spell of the machine touches every
# workload alike. Each run lasts BENCHMARK.json's run_seconds; its output is kept under
# .bench_build/spread/.
#
# The table gives, per workload and metric, the median and the
# interquartile range over the median (quartiles as Python's
# statistics.quantiles(values, n=4) gives them). For the bounded
# (end-to-end) metrics it adds the bound that spread suggests,
# max(3*IQR/median, floor) with a floor of 0.02 for byte counts and 0.03
# otherwise, and the bound BENCHMARK.json holds; the
# unbounded ones are read from each run's "per-layer:" line.
set -euo pipefail

runs=${1:-10}
seed0=${2:-1}
workloads=(browse edit rebind bulk)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

out=.bench_build/spread
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
	for w in "${workloads[@]}"; do
		bash benchmark/run.sh --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 >"$out/$w-$i.out"
	done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
shown = list(bounds) + [m["name"] for m in spec["per_layer"] if "." not in m["name"]]
print(f"{'workload':8} {'metric':22} {'unit':9} {'median':>12} {'IQR/median':>10} {'suggest':>7} {'bound':>6}")
for w in workloads:
    series = {}
    for i in range(runs):
        lines = open(f"{out}/{w}-{i}.out").read().splitlines()
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"{w} run {i}: correctness check failed")
        metrics = dict(res["metrics"])
        for l in lines:
            if l.startswith("per-layer: "):
                metrics.update(json.loads(l[len("per-layer: "):]))
        for name, m in metrics.items():
            series.setdefault(name, (m["unit"], []))[1].append(m["value"])
    for name in shown:
        unit, xs = series[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        if name in bounds:
            floor = 0.02 if unit.startswith("B/") else 0.03
            print(f"{w:8} {name:22} {unit:9} {med:12.6g} {rel:10.4f} {max(3 * rel, floor):7.3f} {bounds[name]:6.2f}")
        else:
            print(f"{w:8} {name:22} {unit:9} {med:12.6g} {rel:10.4f} {'':>7} {'-':>6}")
PY
