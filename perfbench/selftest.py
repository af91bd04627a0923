"""Self-test of the pipeline benchmark at a tiny size.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs every workload with `--tiny` (a few dozen demos, 3 epochs), untraced
and traced, and checks that each metric BENCHMARK.json names is printed
with its unit. Then corrupts one output of a run (a metrics.csv, a
checkpoint) and checks that the damage is counted in `failed` and in
`failed_share` and that the run exits 1. Finally checks that the command
refuses to run, without printing a result, where there is no source tree.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def work_dirs():
    return set(os.listdir(WORK_ROOT)) if os.path.isdir(WORK_ROOT) else set()


def remove_work_root_if_empty():
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class TestMetricsEmitted(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run_cli(workload, trace)
            self.assertEqual(code, 0, stdout)
            result = last_json(stdout)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)
            for name, m in result["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), name)
                if key == "end_to_end":
                    self.assertGreater(m["value"], 0, name)

    def test_rtp_mp(self):
        self.check_workload("rtp-mp")

    def test_wpp_mp(self):
        self.check_workload("wpp-mp")

    def test_wpp_dmp(self):
        self.check_workload("wpp-dmp")


class TestCorruptOutputsCount(unittest.TestCase):
    """A damaged output must show in `failed` and `failed_share`."""

    def run_corrupted(self, corrupt_after):
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            bench = load_run_module()
            stage = bench.Runner.stage

            def damaging_stage(runner, argv, run_cwd, spans=None):
                result = stage(runner, argv, run_cwd, spans)
                if argv[0] == corrupt_after[0]:
                    corrupt_after[1](run_cwd)
                return result

            before = work_dirs()
            out = io.StringIO()
            with mock.patch.object(bench.Runner, "stage", damaging_stage), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = bench.main(["--workload", "rtp-mp", "--seed", "1",
                                   "--seconds", "0", "--trace", "1",
                                   "--tiny"])
            for kept in work_dirs() - before:
                shutil.rmtree(os.path.join(WORK_ROOT, kept))
            remove_work_root_if_empty()
        finally:
            os.chdir(cwd)
        result = last_json(out.getvalue())
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        share = result["metrics"]["failed_share"]["value"]
        self.assertAlmostEqual(share, result["failed"] / result["attempted"])
        self.assertGreater(share, 0.0)
        return result

    def test_edited_metrics_csv(self):
        def edit(run_cwd):
            path = os.path.join(run_cwd, "eval-deep-mp", "metrics.csv")
            if os.path.exists(path):
                with open(path) as fh:
                    text = fh.read()
                rows = text.splitlines()
                rows[-1] = "overall,nan,1.0," + rows[-1].split(",")[-1]
                with open(path, "w") as fh:
                    fh.write("\n".join(rows) + "\n")
        self.run_corrupted(("eval", edit))

    def test_truncated_checkpoint(self):
        def truncate(run_cwd):
            path = os.path.join(run_cwd, "residual.json")
            if os.path.exists(path):
                with open(path, "r+") as fh:
                    fh.truncate(100)
        result = self.run_corrupted(("train", truncate))
        # the manifest, the reload and the eval stage of it all fail
        self.assertGreaterEqual(result["failed"], 3)


class TestRefusesWithoutSources(unittest.TestCase):

    def test_no_src_tree(self):
        os.makedirs(WORK_ROOT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rtp-mp",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
            remove_work_root_if_empty()
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
