#!/usr/bin/env python3
"""Repeatability check for the repository benchmark.

    python3 benchmark/repeat.py [--runs 10] [--sets 2] [--out FILE]

Runs --sets sets; each set runs every workload of BENCHMARK.json --runs
times untraced, with seeds 1..runs and the run_seconds of BENCHMARK.json,
each run its own `benchmark/run.py` process. For every end-to-end metric
of every workload it prints each set's median and quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median. It flags
a spread wider than the metric's bound in BENCHMARK.json, and a set whose
median differs from the first set's by more than the bound. Exit code 1
when anything is flagged. --out writes the values, summaries and run
context as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed (exit {run.returncode})")
    line = json.loads(lines[-1])
    result_file = os.path.join(ROOT, "build-bench", "results",
                               f"{workload}-seed{seed}-trace0.json")
    with open(result_file) as f:
        context = json.load(f)["context"]
    return line, context, elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(first, later, better):
    """Share by which `later` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    # values[set][workload][metric] = [one value per run]
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    context = None
    durations = {w: [] for w in workloads}
    for k in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                line, context, elapsed = run_once(workload, seed, spec["run_seconds"])
                durations[workload].append(elapsed)
                for m in metrics:
                    values[k][workload][m["name"]].append(line["metrics"][m["name"]]["value"])
                print(f"set {k + 1} seed {seed} {workload} ({elapsed:.1f} s): " + ", ".join(
                    f"{name}={line['metrics'][name]['value']:.5g}"
                    for name in values[k][workload]), flush=True)

    flags = []
    summary = {}
    print(f"\nhost: {context['cpu']} | nproc {context['nproc']} | "
          f"omp threads {context['omp_max_threads']} | {context['build_type']} | "
          f"commit {context['commit']}")
    for workload in workloads:
        print(f"\n{workload}  ({args.runs} runs per set, seeds {seeds[0]}..{seeds[-1]}, "
              f"{statistics.mean(durations[workload]):.1f} s per run)")
        summary[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize(values[k][workload][name]) for k in range(args.sets)]
            summary[workload][name] = sets
            for k, s in enumerate(sets):
                notes = []
                if s["spread"] > bound:
                    notes.append(f"SPREAD > bound {bound:g}")
                    flags.append(f"{workload} {name} set {k + 1} spread {s['spread']:.3f}")
                if k > 0:
                    drift = worse_by(sets[0]["median"], s["median"], m["better"])
                    notes.append(f"worse than set 1 by {drift:+.3f}")
                    if abs(drift) > bound:
                        notes.append(f"DRIFT > bound {bound:g}")
                        flags.append(f"{workload} {name} set {k + 1} drift {drift:+.3f}")
                print(f"  {name:<17} set {k + 1}: median {s['median']:.5g} {m['unit']}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f} "
                      f"(bound {bound:g})  {'  '.join(notes)}")

    print("\n" + ("flagged:\n  " + "\n  ".join(flags) if flags else
                  "every spread and every drift is within its bound"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"context": context, "runs_per_set": args.runs, "seeds": seeds,
                       "run_seconds": durations,
                       "values": values, "summary": summary, "flags": flags},
                      f, indent=2, sort_keys=True)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
