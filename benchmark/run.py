#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --workload all

Builds benchmark/ (which compiles the repository's src/ libraries) into
build-bench/, runs the harvest_bench program for one workload in its own
process, prints the run context and every metric BENCHMARK.json names
with its unit, keeps the program's full result under build-bench/results/,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when the build, the run and every output check
succeeded. With --workload all every workload runs, traced and untraced
unless --trace is given, and the last line maps each run to its result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "build-bench")
PROGRAM = os.path.join(BUILD_DIR, "harvest_bench")
# A run, with its set-up samples, must end within 180 s.
RUN_TIMEOUT_S = 140
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (first time) and build harvest_bench; output goes to stderr
    only when a step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no repository sources (src/CMakeLists.txt) next to benchmark/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_step(configure):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_step(["cmake", "--build", BUILD_DIR, "--target", "harvest_bench",
                     "--parallel", jobs])


def run_step(command):
    step = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        log(step.stdout)
        log("run.py: build step failed: " + " ".join(command))
        return False
    return True


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return out.stdout.strip() or "unknown"


def run_program(workload, seed, seconds, trace, commit):
    """Run one workload in its own process; returns its result object, or
    None when it produced none."""
    command = [PROGRAM, "--workload=" + workload, "--seed=" + str(seed),
               "--seconds=" + str(seconds), "--trace=" + str(trace),
               "--commit=" + commit]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(run.stdout)
        log(f"run.py: {workload} exited with {run.returncode} and no result")
        return None
    if run.returncode != 0 and result.get("correct", False):
        log(f"run.py: {workload} exited with {run.returncode}")
        result["correct"] = False
    return result


def measure_setup(workload, seed):
    """Median set-up seconds over fresh processes: each sample pays what a
    new deployment pays (cold allocator, first OpenMP team), and the
    median of several is steady where one sub-second sample is not."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [PROGRAM, "--workload=" + workload, "--seed=" + str(seed),
                   "--setup-only"]
        try:
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=SETUP_TIMEOUT_S)
            samples.append(float(json.loads(run.stdout.strip().splitlines()[-1])["setup_s"]))
        except (subprocess.TimeoutExpired, IndexError, KeyError, ValueError):
            log(f"run.py: {workload} set-up sample failed")
            return None
    samples.sort()
    return samples[len(samples) // 2]


def select_metrics(spec, result, trace):
    """The metrics BENCHMARK.json names for this mode, in its order. A
    per-layer metric of a layer the workload never runs reads 0; any
    other missing metric is an error."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    skipped = tuple(result.get("not_exercised", []))
    measured = result["metrics"]
    selected = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            metric = measured[name]
        elif trace and skipped and name.startswith(skipped):
            metric = {"value": 0.0, "unit": entry["unit"]}
        else:
            raise ValueError(f"metric {name} missing from the {result['workload']} run")
        if metric["unit"] != entry["unit"]:
            raise ValueError(f"metric {name} has unit {metric['unit']}, "
                             f"BENCHMARK.json says {entry['unit']}")
        if not math.isfinite(metric["value"]):
            raise ValueError(f"metric {name} is not finite")
        selected[name] = {"value": metric["value"], "unit": entry["unit"]}
    return selected


def report(result, metrics):
    context = result["context"]
    isa = " ".join(k for k, v in sorted(context.get("isa", {}).items()) if v) or "-"
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  {result['seconds']:g} s")
    print(f"   host: {context['cpu']} | isa {isa} | qgemm {context['qgemm_isa']} | "
          f"nproc {context['nproc']} | omp threads {context['omp_max_threads']} | "
          f"{context['build_type']} | commit {context['commit']}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"   {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    checks = result.get("checks", [])
    passed = sum(1 for c in checks if c["ok"])
    print(f"   checks: {passed}/{len(checks)} passed; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for check in checks:
        if not check["ok"] or check["name"].endswith(".logits"):
            status = "ok" if check["ok"] else "FAILED"
            print(f"     {status}: {check['name']}: {check['detail']}")
    if "checksum" in result.get("details", {}):
        print(f"     report checksum {result['details']['checksum']}")


def save(result, metrics):
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(dict(result, selected_metrics=metrics), f, indent=2, sort_keys=True)


def run_one(spec, workload, seed, seconds, trace, commit):
    """Returns the result line object, or None when the run produced no
    result."""
    result = run_program(workload, seed, seconds, trace, commit)
    if result is None:
        return None
    if not trace:
        setup_s = measure_setup(workload, seed)
        if setup_s is None:
            return None
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    try:
        metrics = select_metrics(spec, result, trace)
    except ValueError as error:
        log(f"run.py: {error}")
        return None
    report(result, metrics)
    save(result, metrics)
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"run.py: unknown workload {args.workload}; one of {', '.join(names)} or all")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 1
    commit = git_commit()

    if args.workload != "all":
        line = run_one(spec, args.workload, args.seed, seconds, args.trace or 0, commit)
        if line is None:
            return 1
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1

    modes = [0, 1] if args.trace is None else [args.trace]
    lines = {}
    for workload in workloads:
        for trace in modes:
            started = time.monotonic()
            line = run_one(spec, workload, args.seed, seconds, trace, commit)
            print(f"   ({time.monotonic() - started:.1f} s)")
            lines[f"{workload}/trace{trace}"] = line
    print(json.dumps(lines), flush=True)
    return 0 if all(line is not None and line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
