"""Tests of the benchmark's metric contract: BENCHMARK.json's metric names
and units parse, and run.py's result validation accepts a well-formed result
line and rejects malformed ones.

Run from the repository root:  python3 -m unittest perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class MetricContract(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        self.e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}

    def good(self):
        return {"correct": True, "attempted": 144, "failed": 0,
                "metrics": {n: {"value": 1.25, "unit": u} for n, u in self.e2e.items()}}

    def test_names_and_units_parse(self):
        self.assertIn("setup_s", self.e2e)
        self.assertEqual(self.e2e["setup_s"], "s")
        names = [m["name"] for s in ("end_to_end", "per_layer") for m in self.spec[s]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        self.assertEqual(len(self.spec["workloads"]), 4)

    def test_bad_names_and_units_are_rejected(self):
        for bad in ({"name": "_x", "unit": "s"}, {"name": "x", "unit": "m s"},
                    {"name": "x" * 65, "unit": "s"}):
            spec = {"end_to_end": [dict(bad, better="lower", bound=0.1)], "per_layer": []}
            path = os.path.join(ROOT, ".bench_out", "bad_spec.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                json.dump(spec, f)
            with self.assertRaises(ValueError):
                run.load_spec(path)
            os.remove(path)

    def test_well_formed_result_passes(self):
        self.assertEqual(run.validate_result(self.good(), self.e2e), [])

    def test_missing_metric_wrong_unit_and_bad_counts_are_caught(self):
        r = self.good()
        del r["metrics"]["wall_s"]
        self.assertTrue(run.validate_result(r, self.e2e))
        r = self.good()
        r["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate_result(r, self.e2e))
        r = self.good()
        r["attempted"] = 0
        self.assertTrue(run.validate_result(r, self.e2e))
        r = self.good()
        r["metrics"]["wall_s"]["value"] = float("nan")
        self.assertTrue(run.validate_result(r, self.e2e))
        r = self.good()
        r["extra"] = 1
        self.assertTrue(run.validate_result(r, self.e2e))


if __name__ == "__main__":
    unittest.main()
