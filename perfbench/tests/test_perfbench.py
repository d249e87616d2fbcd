"""Tests of the benchmark itself (not of the simulator).

    python3 -m unittest discover -s perfbench/tests

The run tests build perfbench/ first (about a minute on a cold build
directory) and then run one pass of each workload.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench  # noqa: E402
import steady  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_names_follow_the_grammar_and_are_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "-lead", "has space", "a/b", "x" * 65):
            self.assertIsNone(NAME.match(bad), bad)

    def test_setup_metric_has_the_largest_bound(self):
        metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
        setup = metrics["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in metrics.values()))


def result_line(**overrides):
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
               for m in load_spec()["end_to_end"]}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": metrics}
    result.update(overrides)
    return json.dumps(result)


class ResultShape(unittest.TestCase):
    def test_accepts_the_contract_shape(self):
        bench.check_result(result_line(), 0)

    def test_rejects_extra_keys_and_bad_counts(self):
        spec = json.loads(result_line())
        spec["extra"] = 1
        with self.assertRaises(ValueError):
            bench.check_result(json.dumps(spec), 0)
        with self.assertRaises(ValueError):
            bench.check_result(result_line(attempted=0), 0)
        with self.assertRaises(ValueError):
            bench.check_result(result_line(failed=1.5), 0)

    def test_rejects_metrics_other_than_declared(self):
        with self.assertRaises(ValueError):
            bench.check_result(result_line(), 1)
        with self.assertRaises(ValueError):
            bench.check_result(result_line(metrics={}), 0)


class SteadyStatistics(unittest.TestCase):
    METRIC = {"name": "wall_s", "better": "lower", "bound": 0.1}

    def test_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(steady.quartiles(values), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(steady.spread(values), 1.0)

    def test_agreeing_sets_pass(self):
        verdict = steady.judge([[1.0, 1.01, 0.99, 1.0],
                                [1.02, 1.0, 1.01, 0.99]], self.METRIC)
        self.assertTrue(verdict["pass"])
        self.assertTrue(verdict["steady"])

    def test_a_worse_second_set_fails_and_a_better_one_passes(self):
        first = [1.0, 1.01, 0.99, 1.0]
        slower = [1.2, 1.21, 1.19, 1.2]
        self.assertFalse(steady.judge([first, slower], self.METRIC)["pass"])
        self.assertTrue(steady.judge([slower, first], self.METRIC)["pass"])
        higher = dict(self.METRIC, better="higher")
        self.assertTrue(steady.judge([first, slower], higher)["pass"])

    def test_wide_spread_fails_for_every_metric(self):
        wide = [[1.0, 1.5, 0.7, 1.2], [1.0, 1.5, 0.7, 1.2]]
        self.assertFalse(steady.judge(wide, self.METRIC)["pass"])
        setup = dict(self.METRIC, name="setup_s")
        self.assertFalse(steady.judge(wide, setup)["pass"])


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def run_binary(self, workload, refdir):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seconds", "1",
             "--refdir", refdir], cwd=bench.ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return bench.check_result(proc.stdout.splitlines()[-1], 0)

    def test_stored_reference_passes(self):
        result = self.run_binary("fuzz-cold",
                                 os.path.join(bench.HERE, "reference"))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 8)

    def test_wrong_reference_reports_failed_operations(self):
        with tempfile.TemporaryDirectory() as refdir:
            source = os.path.join(bench.HERE, "reference")
            for name in os.listdir(source):
                shutil.copy(os.path.join(source, name), refdir)

            def corrupt(name, edit):
                path = os.path.join(refdir, name)
                with open(path) as f:
                    doc = json.load(f)
                key = sorted(doc["items"])[0]
                doc["items"][key] = edit(doc["items"][key])
                with open(path, "w") as f:
                    json.dump(doc, f)

            # One matrix cell gets another miss rate; one fuzz row's
            # findings document gains a trailing space.
            corrupt("fig6_matrix.json", lambda cell: "1" + cell)
            corrupt("fuzz_findings.json", lambda doc: doc + " ")

            fig6 = self.run_binary("fig6-serial", refdir)
            self.assertFalse(fig6["correct"])
            self.assertEqual(fig6["failed"], 1)
            self.assertEqual(fig6["attempted"], 135)
            fuzz = self.run_binary("fuzz-cold", refdir)
            self.assertFalse(fuzz["correct"])
            self.assertEqual(fuzz["failed"], 1)
            self.assertEqual(fuzz["attempted"], 8)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), root)
            shutil.copytree(bench.HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig6-serial", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=root, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
