#!/usr/bin/env python3
"""Small-scale smoke test of the pipeline benchmark.

    python3 perfbench/tests/smoke_test.py

Builds pipeline_bench like run.py does, then runs every workload twice at
--scale small over its whole (short) stream with tracing on. Two same-seed
runs must give the same input hash and the same deterministic output
counts, every output check must pass, and the per-layer readouts must show
each workload loading the layers it is meant to load.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("steady_forecast", "arrival_surge")
# Counts that depend only on the input stream, not on thread interleaving.
# Event counts do depend on interleaving and are only reported.
DETERMINISTIC = ("messages_fed", "positions_ingested", "forecasts_generated",
                 "vessels_fed", "vessel_keys", "slices")


def run_small(binary, workload, seed):
    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1", "--scale", "small", "--out", out_dir],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"pipeline_bench exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("benchmark build failed")
        cls.results = {w: [run_small(cls.binary, w, 7) for _ in range(2)]
                       for w in WORKLOADS}

    def test_same_seed_runs_agree(self):
        for w, (a, b) in self.results.items():
            with self.subTest(workload=w):
                self.assertEqual(a["input_hash"], b["input_hash"])
                self.assertGreater(a["compared_slices"], 0)
                reps = list(a["reps"].values()) + list(b["reps"].values())
                for key in DETERMINISTIC:
                    self.assertEqual(len({r[key] for r in reps}), 1, key)
                events = sorted(r["events_detected"] for r in reps)
                print(f"{w}: events_detected {events[0]}..{events[-1]} "
                      f"over {len(events)} repetitions", file=sys.stderr)

    def test_output_checks_pass(self):
        for w, pair in self.results.items():
            for r in pair:
                with self.subTest(workload=w):
                    self.assertTrue(r["correct"], r["failures"])
                    self.assertEqual(r["failed"], 0)

    def test_every_declared_metric_is_reported(self):
        spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
        for w, (r, _) in self.results.items():
            with self.subTest(workload=w):
                for m in spec["per_layer"]:
                    self.assertIn(m["name"], r["layers"])
                for m in spec["end_to_end"]:
                    self.assertIn(m["name"], r["e2e"])

    def test_layers_loaded_and_bypassed(self):
        steady = self.results["steady_forecast"][0]["layers"]
        surge = self.results["arrival_surge"][0]["layers"]
        for name in ("stream.produce_ns_mean", "stream.pump_ns_per_record",
                     "stream.consumer_lag_max", "stream.records_polled",
                     "ais.decode_ns_mean"):
            self.assertEqual(steady[name], 0, name)
        self.assertGreater(steady["vrf.items"], 0)
        self.assertEqual(surge["vrf.items"], 0)
        self.assertGreater(surge["stream.records_polled"], 0)
        self.assertGreater(surge["ais.decode_ns_mean"], 0)
        self.assertGreater(surge["actor.spawned"], steady["actor.spawned"])
        for route in ("vessel", "vessel_forecast", "vessel_events", "events",
                      "viewport"):
            self.assertGreater(steady[f"middleware.{route}_us_p50"], 0, route)

    def test_accounting_identities(self):
        for w, (r, _) in self.results.items():
            with self.subTest(workload=w):
                self.assertLessEqual(r["layers"]["trace.slice_uncovered_pct"], 5.0)
                self.assertLessEqual(r["layers"]["trace.busy_identity_err_pct"], 5.0)


if __name__ == "__main__":
    unittest.main()
