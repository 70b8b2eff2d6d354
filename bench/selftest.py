"""The benchmark's own tests, at tiny sizes.

    python3 bench/selftest.py

Golden values for the tiny inputs are captured into a file under
``.bench_out/selftest``, and each test runs ``run.py`` against it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import oracle
import workloads

ROOT = workloads.ROOT
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        cls.golden = WORKDIR / "golden-tiny.json"
        cls.golden.unlink(missing_ok=True)
        for workload in WORKLOADS:
            code, _out, err = bench("--workload", workload, "--seed", 3, "--seconds", 1,
                                    "--size", "tiny", "--capture", "--golden", cls.golden)
            assert code == 0, err

    def run_tiny(self, workload, trace, golden=None):
        code, out, err = bench("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", trace,
                               "--size", "tiny", "--golden", golden or self.golden)
        self.assertEqual(code, 0, err)
        return last_json(out), err

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, err = self.run_tiny(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_tampered_golden_value_is_a_failed_request(self):
        data = json.loads(self.golden.read_text(encoding="utf-8"))
        records = data["witness"]["3"]
        rid = next(r for r in records if r.startswith("extract-"))
        records[rid][0] += 1  # one more dominated allocation than was found
        tampered = WORKDIR / "golden-tampered.json"
        tampered.write_text(json.dumps(data), encoding="utf-8")
        result, err = self.run_tiny("witness", 0, tampered)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn(f"{rid}: golden mismatch", err)


class Bounds(unittest.TestCase):
    def test_workers_never_exceed_min_2_nproc(self):
        for cpus in (1, 2, 64):
            with mock.patch("os.sched_getaffinity", return_value=set(range(cpus))):
                self.assertEqual(workloads.workers(), min(2, cpus))

    def test_parallel_requests_use_the_worker_bound(self):
        sys.path.insert(0, str(workloads.SRC))
        import reallot
        import spans

        seen = []
        api = workloads.make_api(reallot, spans.NullTracer())
        api.verify_jobs2 = lambda *args, jobs=1: seen.append(jobs)
        wl = workloads.clean(reallot, api, random.Random(0), "full", WORKDIR)
        for req in wl.requests:
            if req.rid.startswith("jobs2-"):
                req.call(api)
        self.assertTrue(seen)
        self.assertTrue(all(1 <= jobs <= min(2, len(os.sched_getaffinity(0))) for jobs in seen))

    def test_fails_without_the_package_source(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "clean",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Oracle(unittest.TestCase):
    # One single-dipped agent between two single-peaked ones: mu is
    # pair-efficient, and nu dominates it.
    RANKS = ((1, 2, 0), (2, 0, 1), (0, 1, 2))
    MU, NU = (2, 0, 1), (1, 2, 0)

    def test_gap_is_confirmed(self):
        self.assertIsNone(oracle.gap_problem(self.RANKS, self.MU, self.NU))
        self.assertTrue(oracle.improving_cycle(self.RANKS, self.MU, (0, 2, 1)))
        self.assertFalse(oracle.pareto_efficient(self.RANKS, self.MU))
        self.assertTrue(oracle.pareto_efficient(self.RANKS, self.NU))

    def test_false_gaps_are_rejected(self):
        self.assertIsNotNone(oracle.gap_problem(self.RANKS, self.MU, self.MU))
        self.assertIsNotNone(oracle.gap_problem(self.RANKS, (0, 1, 2), self.NU))
        self.assertFalse(oracle.mutually_envious(self.RANKS, self.MU, 0, 1))


if __name__ == "__main__":
    unittest.main()
