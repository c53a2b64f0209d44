"""Workload process of the skg benchmark.

``run.py`` starts this file in a fresh interpreter after writing the
inputs. It runs the workload's ``skg`` subcommands in-process through
``skg.cli.main(argv)``, so each timing covers argument parsing, ingest,
compute and output writing but not interpreter start. Every op output is
checked; outputs of one graph instance must be byte-identical on every
iteration. Loading every instance once before the loop warms the file
cache and finishes lazy imports, so the first iteration is timed too. A
machine-speed probe (``calib.py``) runs before the first op and after every
op, and each op's time is also given at the reference speed. With
``--trace 1`` iterations alternate between untraced and traced, so the
tracing overhead is measured in the same process.

Writes ``worker.json`` in the work directory; ``run.py`` turns it into
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import skg  # noqa: E402
import skg.cli  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# CLI defaults, restated so the checks can derive expected sizes.
ETA = 0.1
EPOCHS = 3
FRACTION = 0.4
SWEEP_REPEATS = 8
SWEEP_POINTS = 25


class OpFailed(Exception):
    """An op exited nonzero; the rest of its iteration depends on it."""


class Runner:
    """Runs ops of one iteration and keeps every op record of the run."""

    def __init__(self, tracer: Tracer, probes: list[float]):
        self.tracer = tracer
        self.probes = probes  # probe seconds; the last one ran just before the next op
        self.iteration = 0
        self.records: list[dict] = []
        self.digests: dict = {}
        self.first_outputs: dict = {}

    def op(self, instance: dict, name: str, phase: str, argv: list, files=()) -> str:
        """Run one subcommand; returns its standard output."""
        record = {"instance": instance["index"], "op": name, "phase": phase,
                  "problems": [], "iteration": self.iteration}
        self.records.append(record)
        self.tracer.op_id = len(self.records) - 1
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = skg.cli.main(argv)
        except Exception:  # an uncaught error is a failed op, not a crashed benchmark
            code = None
            record["problems"].append(traceback.format_exc(limit=4))
        record["s"] = time.perf_counter() - start
        self.probes.append(calib.probe())
        record["scaled_s"] = calib.scale(record["s"], *self.probes[-2:])
        record["rc"] = code
        text = buffer.getvalue()
        if code != 0:
            record["problems"].append(f"exit code {code}")
            raise OpFailed(name)
        record["output_bytes"] = len(text.encode("utf-8")) + sum(
            Path(p).stat().st_size for p in files)
        key = (instance["index"], name)
        digest = checks.digest(text, files)
        if self.digests.setdefault(key, digest) != digest:
            record["problems"].append("output differs from the first run of this instance")
        self.first_outputs.setdefault(key, text)
        return text

    def check(self, problems: list[str]) -> None:
        self.records[-1]["problems"] += problems


def _select(runner, inst, refine: bool) -> dict:
    argv = ["select", *(["--refine"] if refine else []), *inst["flags"], "--seed", inst["seed"]]
    report = json.loads(runner.op(inst, "select-refine" if refine else "select", "select", argv))
    runner.check(checks.check_select_report(
        report, eta=ETA, required=skg.SELECTION_REPORT_SCHEMA["required"], refined=refine))
    return report


def iterate_cora_select(runner, inst) -> float:
    """select, then train at sigma_sq_ed, then predict the tested nodes."""
    out = Path(inst["dir"])
    report = _select(runner, inst, refine=False)
    sigma = repr(report["sigma_sq_ed"]["value"])
    model, split, pred = out / "model.json", out / "split.json", out / "pred.csv"
    summary = json.loads(runner.op(inst, "train", "downstream", [
        "train", *inst["flags"], "--seed", inst["seed"], "--sigma-sq", sigma,
        "--model-out", str(model), "--split-out", str(split)], files=(model, split)))
    steps = EPOCHS * len(inst["sampled"])
    if summary["duration"] != steps or summary["n_tested"] != len(inst["tested"]):
        runner.check([f"train summary {summary} does not match the split"])
    predict_argv = ["predict", "--model", str(model), "--graph", inst["graph"],
                    "--split", str(split), "--values", inst["values"], "--out", str(pred)]
    predict_argv += [flag for flag in inst["flags"] if flag in ("--weighted", "--directed")]
    text = runner.op(inst, "predict", "downstream", predict_argv, files=(pred,))
    predicted = json.loads(text.strip().splitlines()[-1])["gnmse"]
    runner.check(checks.check_gnmse_pair(summary["test_gnmse"], predicted)
                 + checks.check_row_count(pred, len(inst["tested"]), "prediction CSV"))
    return summary["test_gnmse"]


def iterate_refine_weighted(runner, inst) -> float:
    """select --refine, then analyze one tested node at the refined variance."""
    out = Path(inst["dir"])
    report = _select(runner, inst, refine=True)
    trace, scatter = out / "trace.csv", out / "scatter.csv"
    summary = json.loads(runner.op(inst, "analyze", "downstream", [
        "analyze", *inst["flags"], "--seed", inst["seed"],
        "--sigma-sq", repr(report["sigma_sq_ed"]["value"]), "--test-node", inst["tested"][0],
        "--trace-out", str(trace), "--scatter-out", str(scatter)], files=(trace, scatter)))
    n = len(inst["sampled"])
    runner.check(checks.check_row_count(trace, EPOCHS * n, "trace CSV")
                 + checks.check_row_count(scatter, n * (n - 1) // 2, "scatter CSV"))
    return summary["gnmse"]


def iterate_sweep_grid(runner, inst) -> float:
    """select, then the default 25-point sweep plus the marked variance."""
    out = Path(inst["dir"])
    report = _select(runner, inst, refine=False)
    table = out / "sweep.csv"
    summary = json.loads(runner.op(inst, "sweep", "downstream", [
        "sweep", *inst["flags"], "--seed", inst["seed"], "--repeats", str(SWEEP_REPEATS),
        "--grid-points", str(SWEEP_POINTS), "--jobs", "1", "--out", str(table)], files=(table,)))
    runner.records[-1]["cells"] = summary["grid_points"] * summary["repeats"]
    runner.check(checks.check_sweep(table, report["sigma_sq_ed"]["value"], summary["grid_points"]))
    row, _ = checks.marked_row(table)
    return float(row["gnmse_mean"]) if row else float("nan")


ITERATIONS = {
    "cora-select": iterate_cora_select,
    "refine-weighted": iterate_refine_weighted,
    "sweep-grid": iterate_sweep_grid,
}


def prepare(inst: dict) -> None:
    """Untimed: the seeded split the ops will use, for sizes and the probe node."""
    dataset = skg.load_dataset(inst["graph"], inst["values"], weighted=inst["weighted"],
                               directed=inst["directed"])
    sampled, tested = skg.split_sample(dataset.node_ids, FRACTION, int(inst["seed"]))
    inst["sampled"], inst["tested"] = sampled, tested


def post_checks(runner, instances, workload) -> None:
    """Checks that recompute results independently; run after the timed loop."""
    for inst in instances:
        first = runner.first_outputs
        select_name = "select-refine" if workload == "refine-weighted" else "select"
        if (inst["index"], select_name) not in first:
            continue
        report = json.loads(first[(inst["index"], select_name)])
        vectors = checks.adjacency_vectors(inst["graph"], inst["sampled"],
                                           inst["weighted"], inst["directed"])
        problems = {select_name: checks.check_d_sq_max(report, checks.max_pair_distance(vectors))}
        del vectors
        if workload == "sweep-grid" and (inst["index"], "sweep") in first:
            row, found = checks.marked_row(Path(inst["dir"]) / "sweep.csv")
            problems["sweep"] = found
            if row is not None:
                dataset = skg.load_dataset(inst["graph"], inst["values"])
                seed = int(inst["seed"])
                cells = [skg.run_once(dataset, skg.RunConfig(), float(row["sigma_sq"]), seed + r).gnmse
                         for r in range(SWEEP_REPEATS)]
                problems["sweep"] += checks.check_sweep_cells(row, cells)
        for record in runner.records:
            if record["instance"] == inst["index"] and problems.get(record["op"]):
                record["problems"] += problems[record["op"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", choices=sorted(ITERATIONS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    instances = json.loads((workdir / "instances.json").read_text())
    for inst in instances:
        prepare(inst)

    tracer = Tracer()
    tracer.install()
    probes = [calib.probe()]
    runner = Runner(tracer, probes)
    iterate = ITERATIONS[args.workload]
    iterations, gnmse = [], {}

    def one(index: int, inst: dict, traced: bool) -> float:
        runner.iteration = index
        first_record = len(runner.records)
        first_span = tracer.mark()
        tracer.active = traced
        start = time.perf_counter()
        try:
            value = iterate(runner, inst)
            gnmse.setdefault(inst["index"], value)
        except OpFailed:
            pass
        except (IndexError, KeyError, TypeError, ValueError) as exc:  # malformed op output
            runner.check([f"unreadable output: {exc!r}"])
        wall = time.perf_counter() - start
        tracer.active = False
        entry = {"index": index, "instance": inst["index"], "traced": traced, "wall_s": wall,
                 "ops": list(range(first_record, len(runner.records)))}
        if traced:
            entry["trace"] = tracer.summarize(first_span)
        iterations.append(entry)
        return wall

    # Untraced runs visit every instance (gnmse_ed averages over them); traced
    # runs pair an untraced and a traced iteration on each instance. No
    # iteration starts that would end past --seconds once the minimum is met.
    n_inst = len(instances)
    minimum = 2 if args.trace else n_inst
    start = time.perf_counter()
    walls = []
    for index in itertools.count():
        if args.trace:
            inst, traced = instances[(index // 2) % n_inst], index % 2 == 1
        else:
            inst, traced = instances[index % n_inst], False
        walls.append(one(index, inst, traced))
        remaining = args.seconds - (time.perf_counter() - start)
        if index + 1 >= minimum and remaining < statistics.median(walls):
            break
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    post_checks(runner, instances, args.workload)

    result = {
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probes,
        "records": runner.records,
        "iterations": iterations,
        "gnmse_by_instance": {str(k): v for k, v in sorted(gnmse.items())},
        "instances": [{k: inst[k] for k in ("index", "seed")} | {
            "n_sampled": len(inst["sampled"]), "n_tested": len(inst["tested"])}
            for inst in instances],
        "absent": tracer.absent,
        "counter_errors": dict(tracer.counter_errors),
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(tracer.export()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
