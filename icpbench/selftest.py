#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 icpbench/selftest.py

They build the benchmark like run.py does (a few minutes the first
time) and then check that:
  - the same seed gives the same op sequence, the same reference
    digests and identical quality metrics;
  - a different seed gives a different draw;
  - one command prints every metric BENCHMARK.json names, with its
    unit, on every workload, traced and untraced, with no failed op;
  - the traced run's counts repeat exactly for the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("cold_fleet", "warm_fleet", "serve_edit")

# Per-layer metrics that are counts of deterministic work (no clock,
# no fault counter), so equal seeds must reproduce them exactly.
EXACT_COUNTS = (
    "analysis.funcs", "analysis.blocks", "analysis.insns",
    "analysis.hit_pct", "analysis.cross_hits", "analysis.deps_rejected",
    "cache_store.bytes_mapped", "cache_store.bytes_appended",
    "rewrite.trampolines", "rewrite.trap_ratio",
    "rewrite.multihop_tramps", "rewrite.cloned_tables",
    "session.dirty_funcs", "session.emitted_funcs", "session.splice_ratio",
)


def run(workload, seed, *extra, seconds=1, trace=0):
    """Run one workload; return its last stdout line parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plan(workload, seed):
    return run(workload, seed, "--plan")


class Determinism(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(plan(w, 7), plan(w, 7))

    def test_different_seed_different_draw(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = plan(w, 7), plan(w, 8)
                self.assertNotEqual(a["ops"], b["ops"])
                self.assertNotEqual(a["digests"], b["digests"])

    def test_traced_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, 3, trace=1)["metrics"]
                b = run(w, 3, trace=1)["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(a[name], b[name], name)


class Contract(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = run(w, 5, trace=trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in r["metrics"].items():
                            self.assertNotEqual(v["value"], 0, k)


if __name__ == "__main__":
    unittest.main(verbosity=2)
