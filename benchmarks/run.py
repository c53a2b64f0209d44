"""skg benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cora-select --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cora-select``: ``skg select``, ``skg train`` at sigma_sq_ed, ``skg predict``
  on a 2700-node directed graph.
* ``refine-weighted``: ``skg select --refine`` and ``skg analyze`` on a
  1000-node weighted graph.
* ``sweep-grid``: ``skg select`` and ``skg sweep --jobs 1`` on a 200-node graph.

The run writes several graph instances of the workload's shape from the
seed (untimed), times ``setup_s`` as the median of seven fresh interpreters that
``import skg`` and load instance 0, then starts ``worker.py``, which runs
the workload's ops in-process for ``--seconds`` seconds and checks every
output. The op timings in the result line are taken at the reference machine
speed: wall time scaled by the machine-speed probes run just before and after
the op (see ``calib.py``), because a shared host's speed can drift by more
than the bounds.
``setup_s`` is plain wall time; the probe does not track process start-up.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable report, including the
per-op timings (median and upper percentile with sample counts) and the
environment. Everything the run writes stays under ``.bench_work/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
from tracer import MODULES  # noqa: E402

# Graph instances per seed. gnmse_ed averages over them, so the small
# sweep-grid graph, whose error varies most between graphs, gets more.
INSTANCES = {"cora-select": 4, "refine-weighted": 4, "sweep-grid": 8}
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 30.0
# The whole run must end within 180 s; the worker gets what set-up left.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import skg; "
    "skg.load_dataset(sys.argv[2], sys.argv[3], weighted=sys.argv[4] == '1', "
    "directed=sys.argv[5] == '1')"
)

# Stated dominant layers: (op, span names whose self time is the layer).
DOMINANT = {
    "cora-select": ("select", ("graph_data.pairwise_stats",)),
    "refine-weighted": ("select-refine", ("weights.probe_weight_traces",)),
    "sweep-grid": ("sweep", ("graph_data.build_adjacency_vectors", "rff.feature_matrix",
                             "model.train")),
}

# Function timings that are zero on some workload (REPORT_ONLY_S, and
# cli.<subcommand>.self_s) are reported in the readable part only; the
# result line carries timings every workload exercises, plus counts.
INCLUSIVE_S = ("graph_data.pairwise_stats", "graph_data.build_adjacency_vectors",
               "graph_data.load_dataset", "rff.feature_matrix", "rff.sample_bank",
               "model.train", "model.predict_batch", "harness.resolve_sigma_sq",
               "harness.run_once")
COUNTS = (("graph_data.pairwise_stats.pairs", "count"),
          ("graph_data.build_adjacency_vectors.calls", "count"),
          ("graph_data.build_adjacency_vectors.cells", "count"),
          ("harness.sweep.adjacency_reuse", "ratio"),
          ("graph_data.edges_ingested", "count"),
          ("rff.feature_matrix.rows", "count"),
          ("rff.feature_matrix.flops", "flop"),
          ("model.train.steps", "count"),
          ("weights.probe_weight_traces.probes", "count"),
          ("weights.probe_weight_traces.recursion_flops", "flop"),
          ("weights.probe_weight_traces.dense_bytes", "B"),
          ("harness.run_once.calls", "count"))
REPORT_ONLY_S = ("weights.probe_weight_traces", "harness.sweep", "model.load_model")
SUBCOMMANDS = ("select", "train", "predict", "sweep", "analyze")


def median(values):
    return statistics.median(values) if values else float("nan")


def upper(values) -> str:
    """Highest percentile with at least ten samples above it, with the count."""
    n = len(values)
    if n <= 10:
        return f"n={n} (no percentile has 10 samples above it; max {max(values, default=0):.4f})"
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f} n={n}"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def write_instances(workload: str, seed: int, workdir: Path) -> list[dict]:
    shape = gen.SHAPES[workload]
    instances = []
    for index in range(INSTANCES[workload]):
        out = workdir / f"instance{index}"
        info = gen.write_inputs(workload, seed, index, out)
        instances.append({
            "index": index, "seed": str(index), "dir": str(out), "graph": info["graph"],
            "values": info["values"], "flags": info["flags"],
            "weighted": shape.weighted, "directed": shape.directed,
        })
    (workdir / "instances.json").write_text(json.dumps(instances))
    return instances


def time_setup(inst: dict) -> list[float]:
    """Wall seconds of fresh interpreters that import skg and load ``inst``.

    The wait blocks in waitpid: ``Popen.wait(timeout=...)`` polls with sleeps
    of up to 50 ms, which would quantize the result. A timer kills a child
    that hangs.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), inst["graph"], inst["values"],
            "1" if inst["weighted"] else "0", "1" if inst["directed"] else "0"]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL)
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv[:3])
    return times


def op_table(records, iterations, traced: bool, key: str = "s") -> dict:
    """Per-op seconds (``key``: wall "s" or "scaled_s") over iterations of the
    given tracing state."""
    keep = {i for it in iterations if it["traced"] == traced for i in it["ops"]}
    table: dict = {}
    for i in sorted(keep):
        rec = records[i]
        if rec["rc"] == 0:
            table.setdefault(rec["op"], []).append(rec[key])
    return table


def phase_times(records, iterations, phase) -> list[float]:
    """Per-iteration seconds at the reference speed of one phase's ops."""
    out = []
    for it in iterations:
        if it["traced"]:
            continue
        recs = [records[i] for i in it["ops"]]
        if recs and all(r["rc"] == 0 for r in recs):
            out.append(sum(r["scaled_s"] for r in recs if r["phase"] == phase))
    return out


def layer_values(workload, summary, records, op_ids) -> dict:
    """All per-layer values of one traced iteration."""
    inclusive, self_time, counts = summary["inclusive"], summary["self"], summary["counts"]
    values = {f"{name}.s": inclusive.get(name, 0.0) for name in INCLUSIVE_S + REPORT_ONLY_S}
    values["variance.select.self_s"] = self_time.get("variance.select", 0.0)
    values.update({f"{module}.self_s": summary["modules"].get(module, 0.0) for module in MODULES})
    by_op = summary["self_by_op"]
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.self_s"] = sum(
            by_op.get(str(i), {}).get(name, 0.0) for i in op_ids
            if records[i]["op"].startswith(sub) for name in ("cli.main", f"cli.cmd_{sub}"))
    values.update({name: counts.get(name, 0) for name, _ in COUNTS})
    scan_s = values["graph_data.pairwise_stats.s"]
    values["graph_data.pairwise_stats.pairs_per_s"] = (
        values["graph_data.pairwise_stats.pairs"] / scan_s if scan_s > 0 else 0.0)
    train_s = values["model.train.s"]
    values["model.train.steps_per_s"] = values["model.train.steps"] / train_s if train_s > 0 else 0.0
    values["cli.output_bytes"] = sum(records[i].get("output_bytes", 0) for i in op_ids)
    op_wall = sum(records[i]["s"] for i in op_ids)
    values["trace.self_coverage"] = sum(self_time.values()) / op_wall if op_wall else 0.0
    op_name, layers = DOMINANT[workload]
    shares = [sum(by_op.get(str(i), {}).get(n, 0.0) for n in layers)
              / records[i]["s"] for i in op_ids if records[i]["op"] == op_name]
    values["dominant_layer.share"] = median(shares) if shares else 0.0
    return values


# Metrics of the result line: (name, unit, better). select_s and downstream_s
# are per-iteration medians of the ops that reach sigma_sq_ed (select, or
# select --refine) and of the ops run at it (train + predict, analyze, sweep).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("select_s", "s", "lower"),
    ("downstream_s", "s", "lower"),
    ("gnmse_ed", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_ratio", "ratio", "higher"),
)
PER_LAYER = (
    [(f"{name}.s", "s", "lower") for name in INCLUSIVE_S]
    + [("variance.select.self_s", "s", "lower")]
    + [(f"{module}.self_s", "s", "lower") for module in MODULES]
    + [(name, unit, "higher" if name.endswith("adjacency_reuse") else "lower")
       for name, unit in COUNTS]
    + [("graph_data.pairwise_stats.pairs_per_s", "1/s", "higher"),
       ("model.train.steps_per_s", "1/s", "higher"),
       ("cli.output_bytes", "B", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.self_coverage", "ratio", "higher"),
       ("dominant_layer.share", "ratio", "lower")]
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "skg" / "__init__.py").is_file():
        print(f"error: no skg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances = write_instances(args.workload, args.seed, workdir)
    try:
        setup = time_setup(instances[0])
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up run failed: {exc}", file=sys.stderr)
        return 1

    budget = DEADLINE_S - (time.monotonic() - started)
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
         "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = worker.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"error: workload did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 1
    result = json.loads((workdir / "worker.json").read_text())
    for inst in instances:
        shutil.rmtree(inst["dir"], ignore_errors=True)

    records, iterations = result["records"], result["iterations"]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    gnmse = list(result["gnmse_by_instance"].values())
    env = environment()

    lines = [f"workload {args.workload}: {gen.SHAPES[args.workload].describe()}; "
             f"seed {args.seed}, {len(instances)} instances, {args.seconds:g} s measured, "
             f"trace {args.trace}"]
    report: dict = {"setup_s": {"value": median(setup), "unit": "s",
                                "samples": setup}}
    # Op timings at the reference speed, with their median wall time.
    untraced = op_table(records, iterations, traced=False)
    scaled = op_table(records, iterations, traced=False, key="scaled_s")
    for op, times in sorted(scaled.items()):
        name = {"select-refine": "select_refine"}.get(op, op) + "_s"
        report[name] = {"value": median(times), "unit": "s", "upper": upper(times),
                        "wall": median(untraced[op])}
    sweeps = [records[i] for it in iterations if not it["traced"]
              for i in it["ops"] if records[i]["op"] == "sweep" and records[i]["rc"] == 0]
    if sweeps:
        report["sweep_cells_per_s"] = {
            "value": median([r["cells"] / r["scaled_s"] for r in sweeps]), "unit": "1/s",
            "wall": median([r["cells"] / r["s"] for r in sweeps])}
    report["failed_ops_ratio"] = {"value": failed / attempted if attempted else 1.0,
                                  "unit": "ratio"}
    probes = result["probe_s"]
    lines.append(f"  machine-speed probe: median {median(probes):.4f} s over {len(probes)} runs, "
                 f"range {min(probes):.4f}-{max(probes):.4f} s, reference {calib.REFERENCE_S} s")
    for name, entry in report.items():
        extra = f"  {entry['upper']}" if "upper" in entry else ""
        extra += f"  wall {entry['wall']:.6g}" if "wall" in entry else ""
        lines.append(f"  {name:<22} {entry['value']:.6g} {entry['unit']}{extra}")

    layers: dict = {}
    if args.trace == 0:
        values = {
            "setup_s": median(setup),
            "select_s": median(phase_times(records, iterations, "select")),
            "downstream_s": median(phase_times(records, iterations, "downstream")),
            "gnmse_ed": statistics.fmean(gnmse) if gnmse else float("nan"),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
        }
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    else:
        traced = [it for it in iterations if it["traced"]]
        per_iter = [layer_values(args.workload, it["trace"], records, it["ops"])
                    for it in traced]
        layers = {key: median([v[key] for v in per_iter]) for key in per_iter[0]} if per_iter else {}
        walls = {flag: [it["wall_s"] for it in iterations if it["traced"] == flag]
                 for flag in (False, True)}
        layers["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
        lines.append("  per-op wall seconds (median): untraced / traced / sum of span self times")
        traced_ops = op_table(records, iterations, traced=True)
        for op in sorted(untraced):
            self_sums = [sum(it["trace"]["self_by_op"].get(str(i), {}).values())
                         for it in traced for i in it["ops"] if records[i]["op"] == op]
            lines.append(f"    {op:<14} {median(untraced[op]):.4f} / "
                         f"{median(traced_ops.get(op, [])):.4f} / {median(self_sums):.4f}")
        lines.append(f"  dominant layer of {DOMINANT[args.workload][0]}: "
                     f"{'+'.join(DOMINANT[args.workload][1])} "
                     f"share {layers.get('dominant_layer.share', 0.0):.3f}")
        lines.append("  per-layer (median over traced iterations):")
        for key in sorted(layers):
            lines.append(f"    {key:<46} {layers[key]:.6g}")
        if result["absent"]:
            lines.append(f"  absent trace targets: {', '.join(result['absent'])}")
    problems = sorted({p for r in records for p in r["problems"]})
    for problem in problems[:20]:
        lines.append(f"  FAILED CHECK: {problem}")
    lines.append("  env " + json.dumps(env, sort_keys=True))

    out = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        # a metric a failed run could not measure reads 0, never NaN (not JSON)
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "report": report, "layers": layers, "result": out,
         "instances": result["instances"], "problems": problems}, indent=1))
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
