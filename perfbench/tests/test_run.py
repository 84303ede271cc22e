"""Tests of perfbench/run.py: metric names, the catalogue and aggregation.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests

CatalogueCoverage runs the built runner (see perfbench/README.md) and is
skipped when it has not been built.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

SPEC = run.load_spec(ROOT)

# A small catalogue for the aggregation tests.
TOY_SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s"},
        {"name": "cpu_s", "unit": "s"},
        {"name": "setup_s", "unit": "s"},
        {"name": "sim_op_p99_us", "unit": "us"},
    ],
    "per_layer": [
        {"name": "sim.events", "unit": "count"},
        {"name": "sim.host_ns_per_event", "unit": "ns"},
        {"name": "ds.chunks_fetched", "unit": "count"},
        {"name": "trace.overhead_frac", "unit": "frac"},
        {"name": "trace.self_us.image.p50", "unit": "us"},
    ],
}


def fake_rep(cpu_s, model=None, checks_ok=True, layers=None):
    return {
        "host": {"wall_s": cpu_s + 0.01, "cpu_s": cpu_s, "setup_s": 0.001,
                 "sim.host_ns_per_event": 100 * cpu_s},
        "model": model if model is not None else {"sim_op_p99_us": 20.0},
        "layers": layers if layers is not None else {"sim.events": 7.0},
        "checks": [{"name": "c", "ok": checks_ok, "detail": ""}],
        "attempted": 10,
        "failed": 0,
    }


class MetricNames(unittest.TestCase):
    def test_accepts_catalogue_names(self):
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(run.valid_metric_name(m["name"]), m["name"])

    def test_rejects_bad_names(self):
        for bad in ("", ".lead", "_lead", "has space", "a/b", "a:b", "x" * 65, "é", "ok\n"):
            self.assertFalse(run.valid_metric_name(bad), bad)
        self.assertTrue(run.valid_metric_name("x" * 64))
        self.assertTrue(run.valid_metric_name("9lives.p99-x_y"))

    def test_names_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class Aggregate(unittest.TestCase):
    def test_trimmed_mean(self):
        self.assertEqual(run.trimmed_mean([1.0, 2.0, 3.0]), 2.0)
        self.assertEqual(run.trimmed_mean([100.0] + [1.0] * 8 + [2.0]), 1.125)
        self.assertEqual(run.trimmed_mean([1.0, 2.0, 3.0, 4.0], cut=0.25), 2.5)

    def test_end_to_end_takes_host_means_and_model_values(self):
        reps = [fake_rep(1.0), fake_rep(3.0), fake_rep(5.0)]
        reps[2]["host"]["setup_s"] = 0.004
        result, problems = run.aggregate(TOY_SPEC, reps, [])
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["cpu_s"], {"value": 3.0, "unit": "s"})
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.001)
        self.assertEqual(result["metrics"]["sim_op_p99_us"]["value"], 20.0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in TOY_SPEC["end_to_end"]})
        self.assertEqual(result["attempted"], 30)

    def test_unreported_end_to_end_metric_is_incorrect(self):
        result, problems = run.aggregate(TOY_SPEC, [fake_rep(1.0, model={})], [])
        self.assertFalse(result["correct"])
        self.assertIn("runner did not report sim_op_p99_us", problems)

    def test_failed_check_makes_run_incorrect(self):
        result, problems = run.aggregate(
            TOY_SPEC, [fake_rep(1.0), fake_rep(1.0, checks_ok=False)], [])
        self.assertFalse(result["correct"])
        self.assertTrue(any("check failed" in p for p in problems))

    def test_nondeterministic_model_is_incorrect(self):
        result, _ = run.aggregate(
            TOY_SPEC, [fake_rep(1.0), fake_rep(1.0, model={"sim_op_p99_us": 21.0})], [])
        self.assertFalse(result["correct"])

    def test_traced_run_reports_layers_and_overhead(self):
        untraced = [fake_rep(1.0), fake_rep(3.0)]
        traced = [fake_rep(3.0), fake_rep(3.0)]
        result, problems = run.aggregate(TOY_SPEC, untraced, traced)
        self.assertEqual(problems, [])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in TOY_SPEC["per_layer"]})
        self.assertAlmostEqual(metrics["trace.overhead_frac"]["value"], 0.5)
        self.assertEqual(metrics["sim.events"]["value"], 7.0)
        # A host-time layer metric: the median over the untraced repetitions.
        self.assertEqual(metrics["sim.host_ns_per_event"]["value"], 200.0)
        # Groups the workload reported nothing of (no ds layer, no image span).
        self.assertEqual(metrics["ds.chunks_fetched"]["value"], 0.0)
        self.assertEqual(metrics["trace.self_us.image.p50"]["value"], 0.0)

    def test_missing_metric_of_a_reported_group_is_incorrect(self):
        layers = {"sim.events": 7.0, "trace.self_us.image.p99": 3.0}
        result, problems = run.aggregate(
            TOY_SPEC, [fake_rep(1.0)], [fake_rep(1.0, layers=layers)])
        self.assertFalse(result["correct"])
        self.assertIn("runner did not report trace.self_us.image.p50", problems)

    def test_tracing_that_changes_the_model_is_incorrect(self):
        result, problems = run.aggregate(
            TOY_SPEC, [fake_rep(1.0)], [fake_rep(1.5, model={"sim_op_p99_us": 5.0})])
        self.assertFalse(result["correct"])
        self.assertTrue(any("tracing changed" in p for p in problems))

    def test_unknown_layer_is_incorrect(self):
        layers = {"sim.events": 7.0, "bogus.metric": 1.0}
        result, _ = run.aggregate(TOY_SPEC, [fake_rep(1.0)], [fake_rep(1.0, layers=layers)])
        self.assertFalse(result["correct"])


class CatalogueCoverage(unittest.TestCase):
    """Every metric BENCHMARK.json lists is measured by the runner: each
    end-to-end metric on every workload, each per-layer metric on at least
    one (trace.overhead_frac is run.py's own)."""

    def test_every_catalogue_metric_is_reported(self):
        build_dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
        runner = os.path.join(build_dir, "perfbench_runner")
        if not os.path.exists(runner):
            self.skipTest(f"runner not built ({runner})")
        layer_names = set()
        with tempfile.TemporaryDirectory() as tmp:
            for w in SPEC["workloads"]:
                out = subprocess.run(
                    [runner, "--workload", w["name"], "--seed", "1",
                     "--trace-out", os.path.join(tmp, "spans.csv")],
                    capture_output=True, text=True, check=True, timeout=120)
                rep = json.loads(out.stdout.strip().splitlines()[-1])
                for m in SPEC["end_to_end"]:
                    self.assertTrue(m["name"] in rep["host"] or m["name"] in rep["model"],
                                    f"{w['name']}: {m['name']}")
                layer_names |= set(rep["layers"]) | set(rep["host"])
        missing = {m["name"] for m in SPEC["per_layer"]} - layer_names - {"trace.overhead_frac"}
        self.assertEqual(missing, set())


class Cli(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        cwd = os.getcwd()
        try:
            os.chdir(HERE)
            self.assertEqual(run.main(["--workload", "filler", "--seed", "1",
                                       "--seconds", "1"]), 2)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
