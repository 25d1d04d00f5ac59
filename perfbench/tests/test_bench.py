#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_bench.py

Run from the root of a checkout; builds into $CARGO_TARGET_DIR (default
.bench_build) like run.py. Checks that

  - the same seed gives a byte-identical job stream and a different seed a
    different one, for every workload;
  - a short run of each workload prints every end-to-end metric named in
    BENCHMARK.json, with its unit, and passes every correctness check;
  - span self time equals duration minus child coverage (and the other
    unit checks in selftest.cpp).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["sweep-warm", "compile-cold", "mixed-open"]
BUILD = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fixed_args():
    """The --rate/--limit-ms pair BENCHMARK.json's command fixes."""
    command = bench_spec()["command"]
    return command[command.index("perfbench/run.py") + 1:]


def setUpModule():
    os.chdir(ROOT)
    run.build(BUILD)
    subprocess.check_call(["cmake", "--build", BUILD, "--target",
                           "perfbench_selftest"], stdout=sys.stderr)


class StreamTest(unittest.TestCase):
    def dump(self, workload, seed):
        return subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", "2", "--rate", "390",
             "--cold-pool", "64", "--dump-stream", "300"],
            check=True, capture_output=True).stdout

    def test_seed_determines_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertGreater(len(first.splitlines()), 300)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertNotEqual(first, self.dump(workload, 8))


class ShortRunTest(unittest.TestCase):
    def test_every_end_to_end_metric_with_unit(self):
        expected = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py")]
                    + fixed_args()
                    + ["--workload", workload, "--seed", "3",
                       "--seconds", "2", "--trace", "0"],
                    capture_output=True, text=True)
                self.assertEqual(result.returncode, 0, result.stderr)
                last = json.loads(result.stdout.splitlines()[-1])
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreater(last["attempted"], 0)
                self.assertEqual(set(last["metrics"]), set(expected))
                for name, unit in expected.items():
                    metric = last["metrics"][name]
                    self.assertEqual(metric["unit"], unit, name)
                    self.assertGreater(metric["value"], 0, name)


class SelfTest(unittest.TestCase):
    def test_units(self):
        subprocess.check_call([os.path.join(BUILD, "perfbench_selftest")])


if __name__ == "__main__":
    unittest.main()
