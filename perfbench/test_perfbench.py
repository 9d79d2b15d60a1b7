"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quivsurf import linalg, quivers  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_digest(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first, again = w.generate(5), w.generate(5)
                self.assertEqual(first, again)
                self.assertNotEqual(first, w.generate(6))
                prefix = first[:1] if name == "reproduce" else first[:8]
                digests = {
                    workloads.golden_digest(w, [r[2] for r in run.one_pass(w, prefix)])
                    for _ in range(2)
                }
                self.assertEqual(len(digests), 1)

    def test_inputs_stay_inside_documented_limits(self):
        for kind, *rest in workloads.WORKLOADS["obstruct"].generate(5):
            if kind == "quiver":
                self.assertLessEqual(rest[0], 15)
            else:
                rows = rest[0]
                self.assertTrue(all(rows[i][i] == 1 for i in range(len(rows))))
                self.assertTrue(all(rows[i][j] == 0 for i in range(len(rows)) for j in range(i)))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tree = [
            (2, 1, "b", 10, 30),
            (4, 3, "d", 50, 60),
            (3, 1, "c", 40, 70),
            (1, 0, "a", 0, 100),
        ]
        self.assertEqual(spans.self_times(tree), {1: 50, 2: 20, 3: 20, 4: 10})

    def test_tracer_records_nested_calls_and_restores(self):
        original = quivers.rank_rational
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(quivers.rank_rational, original)
            self.assertIs(quivers.rank_rational, linalg.rank_rational)
            quivers.obstruction_report(quivers.Quiver(4, ((0, 1), (1, 2), (2, 3))))
        finally:
            tracer.uninstall()
        names = {name: parent for _, parent, name, _, _ in tracer.spans}
        tracer.collect()
        self.assertIs(quivers.rank_rational, original)
        self.assertEqual(names["quivers.obstruction_report"], 0)
        self.assertEqual(tracer.calls["quivers.forbidden_full_subquiver"], 1)
        self.assertGreater(tracer.calls["linalg.rank_rational"], 1)
        metrics = tracer.metrics(0.0)
        self.assertEqual(tuple(metrics), spans.METRICS)
        self.assertEqual(metrics["toric.h0_lattice_points.calls"]["value"], 0)


class CheckTest(unittest.TestCase):
    def test_wrong_output_counts_as_failed(self):
        w = workloads.WORKLOADS["coh_large"]
        spec = ("P2", (3, 0, 0))
        good = (0, 0.1, [10, 0, 0], None)
        wrong = (0, 0.1, [11, 0, 0], None)
        self.assertEqual(run.failures(w, [spec], [good, good]), [])
        self.assertEqual(len(run.failures(w, [spec], [good, wrong])), 1)
        self.assertEqual(len(run.failures(w, [("P2", (3, 0, 0))], [wrong])), 1)

    def test_changed_golden_output_counts_as_failed(self):
        w = workloads.WORKLOADS["coh_large"]
        pinned = workloads.GOLDEN[w.name]
        self.assertEqual(run.golden_failures(w, workloads), [])
        workloads.GOLDEN[w.name] = "0" * 64
        try:
            self.assertEqual(len(run.golden_failures(w, workloads)), 1)
        finally:
            workloads.GOLDEN[w.name] = pinned

    def test_bareiss_rank_matches_exact_rank(self):
        rng = random.Random(3)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.3:
                rows.append([a + b for a, b in zip(rows[0], rows[-1])])
            self.assertEqual(
                workloads.bareiss_rank(rows), linalg.rank_rational(linalg.ExactMatrix.from_rows(rows))
            )


class ContractTest(unittest.TestCase):
    def bench(self, *args, cwd=ROOT):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
        )

    def test_result_line_matches_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.bench("--workload", "obstruct", "--seed", "2", "--seconds", "1", "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(
                {k: m["unit"] for k, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[key]},
            )

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = self.bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
