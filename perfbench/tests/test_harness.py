"""The harness's oracle self-test, and the metric lists against
BENCHMARK.json. Builds the harness like run.py does (slow the first time).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
import run  # noqa: E402


class HarnessTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_oracles_count_a_corrupted_response(self):
        run.build()
        subprocess.run(["cmake", "--build", run.BUILD, "--target",
                        "perfbench_selftest"], check=True,
                       stdout=subprocess.DEVNULL)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as work:
            done = subprocess.run(
                [os.path.join(run.BUILD, "perfbench_selftest"), work],
                stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertIn("one corrupted response byte is exactly one failure",
                      done.stdout)


if __name__ == "__main__":
    unittest.main()
