"""Self-tests of the benchmark's generator and output checks.

Run from the repository root: ``python3 benchmarks/selftest.py``. Each
check is fed a real CLI output, which it must accept, and a deliberately
corrupted copy, which it must reject.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import skg  # noqa: E402
import skg.cli  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def run_cli(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = skg.cli.main(argv)
    if code != 0:
        raise AssertionError(f"skg {argv[0]} exited with {code}")
    return buffer.getvalue()


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work = HERE.parent / ".bench_work"
        work.mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=work)
        cls.dir = Path(cls._tmp.name)
        cls.inputs = gen.write_inputs("sweep-grid", 3, 0, cls.dir / "inputs")
        dataset = skg.load_dataset(cls.inputs["graph"], cls.inputs["values"])
        cls.sampled, cls.tested = skg.split_sample(dataset.node_ids, 0.4, 0)
        cls.report = json.loads(run_cli(["select", *cls.inputs["flags"]]))

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def test_generator_is_byte_identical_per_seed(self):
        for workload in gen.SHAPES:
            first = gen.write_inputs(workload, 5, 1, self.dir / f"{workload}-a")
            again = gen.write_inputs(workload, 5, 1, self.dir / f"{workload}-b")
            other = gen.write_inputs(workload, 6, 1, self.dir / f"{workload}-c")
            for key in ("graph", "values"):
                self.assertEqual(Path(first[key]).read_bytes(), Path(again[key]).read_bytes())
            self.assertNotEqual(Path(first["graph"]).read_bytes(),
                                Path(other["graph"]).read_bytes())

    def test_generator_shapes(self):
        edges, values = gen.generate(gen.SHAPES["cora-select"], 0, 1, 0)
        self.assertEqual(len(values), 2700)
        self.assertTrue(28_000 < len(edges) < 36_000)
        self.assertTrue(any(s > d for s, d, _ in edges), "directed edges keep both orientations")
        edges, _ = gen.generate(gen.SHAPES["refine-weighted"], 1, 1, 0)
        self.assertTrue(all(0.5 <= w <= 2.0 for _, _, w in edges))
        self.assertGreater(len({w for _, _, w in edges}), 1)

    def test_select_report_check(self):
        required = skg.SELECTION_REPORT_SCHEMA["required"]
        self.assertEqual(checks.check_select_report(
            self.report, eta=0.1, required=required, refined=False), [])
        wrong = json.loads(json.dumps(self.report))
        wrong["sigma_sq_ed"]["value"] *= 1.0 + 1e-9
        self.assertTrue(checks.check_select_report(wrong, eta=0.1, required=required,
                                                   refined=False))
        missing = {k: v for k, v in self.report.items() if k != "sigma_sq_da"}
        self.assertTrue(checks.check_select_report(missing, eta=0.1, required=required,
                                                   refined=False))
        self.assertTrue(checks.check_select_report(self.report, eta=0.1, required=required,
                                                   refined=True))

    def test_d_sq_max_check(self):
        vectors = checks.adjacency_vectors(self.inputs["graph"], self.sampled, False, False)
        expected = checks.max_pair_distance(vectors)
        self.assertEqual(checks.check_d_sq_max(self.report, expected), [])
        self.assertTrue(checks.check_d_sq_max(self.report, expected + 1.0))

    def test_weighted_distance_matches_loop(self):
        vectors = skg.build_adjacency_vectors(
            skg.load_graph(self.inputs["graph"]), self.sampled, self.sampled) * 0.7
        self.assertAlmostEqual(checks.max_pair_distance(vectors) / skg.pairwise_stats(vectors).d_sq_max,
                               1.0, delta=checks.REL_EXACT)

    def test_sweep_checks(self):
        table = self.dir / "sweep.csv"
        run_cli(["sweep", *self.inputs["flags"], "--repeats", "2", "--grid-points", "5",
                 "--jobs", "1", "--out", str(table)])
        sigma_ed = self.report["sigma_sq_ed"]["value"]
        self.assertEqual(checks.check_sweep(table, sigma_ed, 6), [])
        row, _ = checks.marked_row(table)
        dataset = skg.load_dataset(self.inputs["graph"], self.inputs["values"])
        cells = [skg.run_once(dataset, skg.RunConfig(), float(row["sigma_sq"]), seed).gnmse
                 for seed in (0, 1)]
        self.assertEqual(checks.check_sweep_cells(row, cells), [])
        self.assertTrue(checks.check_sweep_cells(row, [cells[0] * 1.001, cells[1]]))

        lines = table.read_text().splitlines(keepends=True)
        unmarked = self.dir / "unmarked.csv"
        unmarked.write_text("".join(line for line in lines if not line.endswith(",true\n")))
        self.assertTrue(checks.check_sweep(unmarked, sigma_ed, 6))
        doubled = self.dir / "doubled.csv"
        doubled.write_text("".join([lines[0], lines[1].replace(",false", ",true"), *lines[2:]]))
        self.assertTrue(checks.check_sweep(doubled, sigma_ed, 6))

    def test_trace_and_scatter_row_checks(self):
        trace, scatter = self.dir / "trace.csv", self.dir / "scatter.csv"
        run_cli(["analyze", *self.inputs["flags"], "--test-node", self.tested[0],
                 "--trace-out", str(trace), "--scatter-out", str(scatter)])
        n = len(self.sampled)
        self.assertEqual(checks.check_row_count(trace, 3 * n, "trace"), [])
        self.assertEqual(checks.check_row_count(scatter, n * (n - 1) // 2, "scatter"), [])
        truncated = self.dir / "truncated.csv"
        truncated.write_text("".join(trace.read_text().splitlines(keepends=True)[:-1]))
        self.assertTrue(checks.check_row_count(truncated, 3 * n, "trace"))

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.SHAPES))
        for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec[key]],
                             list(declared))

    def test_probe_scaling(self):
        self.assertGreater(calib.probe(), 0.0)
        ref = calib.REFERENCE_S
        self.assertAlmostEqual(calib.scale(2.0, ref, ref), 2.0)
        # a host half as fast takes twice as long, and reads the same
        self.assertAlmostEqual(calib.scale(4.0, 2 * ref, 2 * ref), 2.0)
        self.assertAlmostEqual(calib.scale(3.0, ref, 2 * ref), 2.0)

    def test_gnmse_pair_and_digest(self):
        self.assertEqual(checks.check_gnmse_pair(0.25, 0.25 * (1 + 1e-12)), [])
        self.assertTrue(checks.check_gnmse_pair(0.25, 0.2501))
        self.assertNotEqual(checks.digest("a"), checks.digest("b"))


if __name__ == "__main__":
    unittest.main()
