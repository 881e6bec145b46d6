"""Measures bench/perf's baseline and writes bench/perf/baseline.json.

Run from the repository root:

    python3 bench/perf/baseline.py

For every workload: two sets of 3 untraced runs and one set of 3
traced runs at --seed 1, kept as median and quartiles per metric, and
the quartile spread over the median of each end-to-end metric across
10 runs with seeds 1..10. A (workload, metric) pair whose spread over
seeds, or whose gap between the two seed-1 medians, exceeds the
metric's bound in BENCHMARK.json is listed under "excluded". Each run
measures for BENCHMARK.json's run_seconds. Takes about 40 minutes on a
2-core machine.
"""

import json
import os
import statistics
import subprocess

WORKLOADS = ["check-sat", "check-explicit", "submit-mix", "sweep-cold"]
RUNS = 3
SPREAD_SEEDS = 10

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
SECONDS = BENCH["run_seconds"]


def run(workload, seed, trace):
    out = subprocess.run(
        ["bash", "bench/perf/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(runs):
    out = {}
    for k in runs[0]:
        values = [r[k] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[k] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def main():
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    baseline = {
        "git_rev": rev.stdout.strip() or "unknown",
        "cores": os.cpu_count(),
        "seconds": SECONDS,
        "seed": 1,
        "runs": RUNS,
        "spread_seeds": SPREAD_SEEDS,
        "workloads": {},
        "excluded": [],
    }
    for w in WORKLOADS:
        first = summarize([run(w, 1, 0) for _ in range(RUNS)])
        second = summarize([run(w, 1, 0) for _ in range(RUNS)])
        layers = summarize([run(w, 1, 1) for _ in range(RUNS)])
        seeds = summarize([run(w, s, 0) for s in range(1, SPREAD_SEEDS + 1)])
        spread = {k: (q["q3"] - q["q1"]) / q["median"] for k, q in seeds.items()}
        gap = {k: abs(second[k]["median"] - q["median"]) / q["median"]
               for k, q in first.items()}
        baseline["workloads"][w] = {
            "end_to_end": first,
            "end_to_end_second_set": second,
            "same_code_gap": gap,
            "per_layer": layers,
            "spread_over_seeds": spread,
        }
        for k, bound in BOUNDS.items():
            if (k != "setup_s" and spread[k] > bound) or gap[k] > bound:
                baseline["excluded"].append(
                    {"workload": w, "metric": k, "bound": bound,
                     "spread": spread[k], "gap": gap[k]})
        print(w, json.dumps({"spread": spread, "gap": gap}), flush=True)
    with open("bench/perf/baseline.json", "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
