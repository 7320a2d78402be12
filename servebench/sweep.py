#!/usr/bin/env python3
"""Repeat the serve-path benchmark over ten seeds on every workload of
BENCHMARK.json and report, per workload and metric, the median and the
spread (distance between the first and third quartile, as a share of the
median) next to the metric's bound.  A spread above a third of its bound
is flagged WIDE; setup_s is exempt (only its median is compared between
runs).

Run from the repository root:

  python3 servebench/sweep.py
  python3 servebench/sweep.py --first-seed 101
  python3 servebench/sweep.py --traced 3 --write-reference

--first-seed N  run seeds N to N+9 instead of 1-10, to check the spreads
             on seeds the bounds were not chosen on
--traced M   also make traced runs on seeds 1-M, for the per-layer medians
--write-reference  store the medians and the machine anchor in
             servebench/reference.json, the fixed point the benchmark
             reports drift against.
"""
import argparse
import json
import statistics
import subprocess

REFERENCE = "servebench/reference.json"
RUNS = 10


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {p.returncode}):\n{p.stdout}{p.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{p.stdout}")
    anchor = next(float(l.split("spin_ns_per_iter=")[1].split()[0])
                  for l in lines if l.startswith("machine anchor:"))
    return result["metrics"], anchor


def collect(command, workload, seeds, seconds, trace, anchors):
    values = {}
    for seed in seeds:
        metrics, anchor = run_once(command, workload, seed, seconds, trace)
        anchors.append(anchor)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"  {workload} seed {seed} trace {trace}: done", flush=True)
    return values


def spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--write-reference", action="store_true")
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(opts.first_seed, opts.first_seed + RUNS)
    anchors, medians = [], {}
    for w in (w["name"] for w in bench["workloads"]):
        e2e = collect(command, w, seeds, seconds, 0, anchors)
        traced = collect(command, w, range(1, opts.traced + 1), seconds, 1, anchors)
        medians[w] = {k: statistics.median(v) for k, v in {**e2e, **traced}.items()}
        print(f"{w}: seeds {seeds.start}-{seeds.stop - 1}")
        for name, xs in e2e.items():
            s = spread(xs)
            bound = bounds[name]
            flag = "" if name == "setup_s" or s <= bound / 3 else "  WIDE"
            print(f"  {name:24} median {statistics.median(xs):14.4f}  "
                  f"spread {100 * s:6.2f}%  bound {100 * bound:5.1f}%{flag}")
            print("    " + " ".join(f"{x:.4g}" for x in xs))
    if opts.write_reference:
        with open(REFERENCE, "w") as f:
            json.dump({"schema": "servebench-reference-1",
                       "seconds": seconds,
                       "spin_ns_per_iter": statistics.median(anchors),
                       "workloads": medians}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"reference written to {REFERENCE}")


if __name__ == "__main__":
    main()
