#!/usr/bin/env python3
"""Host-timed benchmark of the Quicksand simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload repeatedly, one single-threaded runner process per repetition,
until --seconds have passed. Each repetition sets up a fresh simulation and
times it; a host-time metric is the 10%-trimmed mean over the repetitions
(setup_s their median), a model metric the value every repetition shares.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from repetitions that alternate between untraced and traced runs. Every
repetition's output checks must pass and its model metrics must equal those
of every other repetition (same seed, same code), or the run is not correct
and exits with code 1. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

# The metric catalogue is BENCHMARK.json at the repository root: the
# workloads, and every end-to-end and per-layer metric with its unit.
SPEC_FILE = "BENCHMARK.json"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

MIN_REPS = 3          # untraced repetitions in a --trace 0 run
MIN_TRACED_PAIRS = 2  # untraced + traced pairs in a --trace 1 run
REP_TIMEOUT_S = 150


def valid_metric_name(name):
    """Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]."""
    return bool(_NAME_RE.fullmatch(name))


def trimmed_mean(values, cut=0.1):
    """Mean of `values` without the lowest and highest `cut` share of them.

    Used for the host-time metrics: on a shared host a repetition's speed
    flips between a fast and a slow mode, and a median jumps between the two
    modes while a trimmed mean moves with the share of slow repetitions.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def load_spec(root):
    """The benchmark's catalogue (BENCHMARK.json at `root`)."""
    with open(os.path.join(root, SPEC_FILE), encoding="utf-8") as f:
        return json.load(f)


def group_of(name):
    """A layer metric's group: its name up to the last dot (`ds` for
    `ds.chunks_fetched`, `trace.self_us.image` for
    `trace.self_us.image.p99`)."""
    return name.rsplit(".", 1)[0]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench_runner")


def run_rep(runner, workload, seed, trace_out):
    cmd = [runner, "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"runner exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("runner printed nothing")
    return json.loads(lines[-1])


def failed_checks(rep):
    return [f"{c['name']} ({c['detail']})" for c in rep["checks"] if not c["ok"]]


def aggregate(spec, reps, traced_reps):
    """Builds the result object from untraced and traced repetitions.

    The metrics are those `spec` (BENCHMARK.json) lists. Each comes from a
    repetition's `host` section (a host time: the 10%-trimmed mean over the
    untraced repetitions for an end-to-end metric, their median for setup_s
    and for a per-layer one), its `model` section (deterministic, equal in
    every repetition) or, for per-layer metrics, the last traced
    repetition's `layers`. A per-layer metric the runner did not report is
    0 when the runner reported nothing of its group (the workload has no
    such layer or span); any other metric it did not report, and any layer
    metric the catalogue lacks, makes the run incorrect.
    """
    problems = []
    for i, rep in enumerate(reps + traced_reps):
        problems += [f"rep {i}: check failed: {c}" for c in failed_checks(rep)]
    model = reps[0]["model"]
    for i, rep in enumerate(reps[1:], 1):
        if rep["model"] != model:
            problems.append(f"rep {i}: model metrics differ from rep 0 (non-deterministic)")
    for i, rep in enumerate(traced_reps):
        if rep["model"] != model:
            problems.append(f"traced rep {i}: model metrics differ from untraced"
                            " (tracing changed simulated time)")
    host = reps[0]["host"]
    metrics = {}
    if traced_reps:
        layers = traced_reps[-1]["layers"]
        reported_groups = {group_of(n) for n in list(layers) + list(host)}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                untraced = statistics.median(r["host"]["cpu_s"] for r in reps)
                traced = statistics.median(r["host"]["cpu_s"] for r in traced_reps)
                value = traced / untraced - 1.0
            elif name in host:
                value = statistics.median(r["host"][name] for r in reps)
            elif name in layers:
                value = layers[name]
            elif group_of(name) not in reported_groups:
                value = 0.0
            else:
                problems.append(f"runner did not report {name}")
                value = 0.0
            metrics[name] = {"value": value, "unit": m["unit"]}
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        problems += [f"runner reported unknown layer metric {n}" for n in sorted(unknown)]
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                value = statistics.median(r["host"][name] for r in reps)
            elif name in host:
                value = trimmed_mean([r["host"][name] for r in reps])
            elif name in model:
                value = model[name]
            else:
                problems.append(f"runner did not report {name}")
                value = 0.0
            metrics[name] = {"value": value, "unit": m["unit"]}
    problems += [f"invalid metric name {n}" for n in metrics if not valid_metric_name(n)]
    counted = reps + traced_reps
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
        "metrics": metrics,
    }
    return result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, SPEC_FILE))
            and os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "quicksand"))):
        log(f"perfbench: run from the repository root; {SPEC_FILE} or src/quicksand"
            " is missing")
        return 2
    spec = load_spec(root)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    out_dir = os.path.join(root, out_dir)
    runner = build(root, out_dir)
    if runner is None:
        return 1

    host = {"nproc": os.cpu_count(), "loadavg_before": list(os.getloadavg())}
    trace_out = os.path.join(out_dir, f"spans_{args.workload}.csv")
    reps, traced_reps = [], []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(traced_reps) < len(reps)
            rep_start = time.monotonic()
            rep = run_rep(runner, args.workload, args.seed, trace_out if traced else None)
            (traced_reps if traced else reps).append(rep)
            elapsed = time.monotonic() - start
            per_rep = elapsed / (len(reps) + len(traced_reps))
            log(f"rep {len(reps) + len(traced_reps)}: {'traced ' if traced else ''}"
                f"wall {rep['host']['wall_s']:.3f}s cpu {rep['host']['cpu_s']:.3f}s "
                f"setup {rep['host']['setup_s']:.4f}s ({time.monotonic() - rep_start:.2f}s)")
            enough = (len(traced_reps) >= MIN_TRACED_PAIRS if args.trace
                      else len(reps) >= MIN_REPS)
            paired = len(reps) == len(traced_reps) or not args.trace
            if enough and paired and elapsed + per_rep > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as err:
        log(f"perfbench: repetition failed: {err}")
        return 1
    host["loadavg_after"] = list(os.getloadavg())
    host["reps"] = len(reps)
    host["traced_reps"] = len(traced_reps)

    result, problems = aggregate(spec, reps, traced_reps)
    for p in problems:
        log(f"perfbench: {p}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "result": result,
              "reps": reps, "traced_reps": traced_reps}
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    record_path = os.path.join(runs_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(f"host: nproc={host['nproc']} loadavg before={host['loadavg_before']} "
          f"after={host['loadavg_after']} reps={len(reps)} traced_reps={len(traced_reps)}")
    print("model: not validated against hardware; reference errors are against the "
          "paper's reported figures (app.paper_error_frac, runtime.migration_p99_over_paper)")
    print(f"record: {os.path.relpath(record_path, root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
