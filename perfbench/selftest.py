"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Tiny-size runs of every workload, untraced and traced, must exit 0, name
every metric of BENCHMARK.json and fail no op on a correct program.  A
planted wrong digest or wrong expected count must come back as a failed
op, not a crash.  Outside a source checkout the benchmark must refuse to
run.  The stated interactions that hold by construction are checked on
a tiny traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(metrics.STAGES)


def run(workload: str, trace: int, cwd: Path = ROOT, runner: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


class TinyRuns(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run(workload, trace)
                cls.results[workload, trace] = proc

    def test_exit_zero_and_no_failed_ops(self):
        for key, proc in self.results.items():
            with self.subTest(key=key):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"], proc.stderr)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(last["failed"], 0, proc.stderr)

    def test_every_listed_metric_is_named(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for (workload, trace), proc in self.results.items():
            listed = spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                got = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                self.assertEqual(list(got), [m["name"] for m in listed])
                for m in listed:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])

    def test_stated_interactions_that_hold_by_construction(self):
        def layer(workload):
            proc = self.results[workload, 1]
            return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]

        probes = layer("decode_long")
        self.assertGreater(probes["mockmodel.prefix_digest_us.ctx512"]["value"],
                           3 * probes["mockmodel.prefix_digest_us.ctx64"]["value"])
        read = layer("trace_log")
        read_path = ("trace.load_traces_s", "trace.match_rate_s",
                     "trace.match_rate_by_bucket_s", "trace.forecast_s")
        self.assertEqual(max(read_path, key=lambda n: read[n]["value"]), "trace.load_traces_s")


class PlantedFaults(unittest.TestCase):
    def setUp(self):
        (ROOT / "perfbench-out").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / "perfbench-out"))

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def test_wrong_digest_is_a_failed_op(self):
        state = workloads.cli_session_setup(5, "tiny", self.workdir)
        state.expected["verify"] = {"stdout": "0" * 64, "artifact": None}
        cycle = workloads.cli_session_cycle(state)
        self.assertEqual((cycle.ops, cycle.failed), (len(state.commands), 1))
        self.assertIn("verify", cycle.failures[0])

    def test_wrong_expected_count_is_a_failed_op(self):
        state = workloads.trace_log_setup(5, "tiny", self.workdir)
        state.expected_hits += 1
        cycle = workloads.trace_log_cycle(state)
        self.assertEqual((cycle.ops, cycle.failed), (1, 1))
        self.assertIn("planted", cycle.failures[0])

    def test_outside_a_checkout_it_refuses_to_run(self):
        (self.workdir / "perfbench").mkdir()
        for path in HERE.glob("*.py"):
            shutil.copy(path, self.workdir / "perfbench")
        shutil.copy(HERE / "cli_digests.json", self.workdir / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", self.workdir)
        proc = run("trace_log", 0, cwd=self.workdir, runner=self.workdir / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_metrics_module(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [row[:3] for row in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_interactions_name_known_metrics(self):
        e2e = {name for name, *_ in metrics.END_TO_END}
        for name, stated in metrics.interactions().items():
            for target in stated["moves"] + stated["flat"]:
                workload, metric = target.split(":")
                self.assertIn(workload, WORKLOADS, name)
                self.assertIn(metric, e2e, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
