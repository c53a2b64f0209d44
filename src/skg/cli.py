"""Command-line interface.

Subcommands wire the library into a pipeline: ``stats`` (pairwise
distances), ``select`` (variance selection), ``train`` / ``predict``
(model lifecycle), ``sweep`` (variance grid evaluation) and ``analyze``
(diagnostic exports). Every numeric option can also come from a JSON
config file; explicit flags win. Exit codes: 0 success, 2 argument
error, 3 data error, 4 numeric/degenerate error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ArgumentError, DataError, NumericError, SkgError
from .graph_data import (NORMALIZATION_POLICIES, _Nonzeros, _node_index, _open_out, _read_text,
                         drop_isolated, load_dataset, load_graph, load_values, pairwise_histogram,
                         read_split_manifest, split_sample, write_csv, write_split_manifest)
from .harness import (RunConfig, SweepGrid, default_grid, export_bf_trace, export_scatter,
                      fit_prepared, gnmse, prepare, resolve_sigma_sq, select_prepared, sweep,
                      write_bf_trace_csv, write_scatter_csv, write_sweep_csv)
from .model import load_model, save_model, write_training_trace_csv


def _add_dataset_flags(parser, values_required=True):
    parser.add_argument("--graph", required=True, help="edge-list CSV: src,dst[,weight]")
    parser.add_argument("--values", required=values_required,
                        help="nodal-value CSV: node_id,value")
    parser.add_argument("--weighted", action="store_true",
                        help="read the third edge column as a weight")
    parser.add_argument("--directed", action="store_true",
                        help="treat edges as directed (adjacency vectors use out-edges)")
    parser.add_argument("--drop-isolated", action="store_true",
                        help="drop nodes whose adjacency vector would be all-zero")


def _add_config_flags(parser, include_selection=True):
    parser.add_argument("--config", help="JSON file with defaults for the options below")
    parser.add_argument("--eta", type=float, default=None,
                        help=f"learning rate (default {RunConfig.eta})")
    parser.add_argument("--features", type=int, default=None,
                        help=f"number of random features (default {RunConfig.n_features})")
    parser.add_argument("--epochs", type=int, default=None,
                        help=f"training passes over the sampled set (default {RunConfig.epochs})")
    parser.add_argument("--fraction", type=float, default=None,
                        help="sampled-node fraction of the graph "
                             f"(default {RunConfig.sample_fraction})")
    parser.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    parser.add_argument("--normalization", choices=NORMALIZATION_POLICIES, default=None,
                        help=f"value normalization policy (default {RunConfig.normalization})")
    if include_selection:
        parser.add_argument("--closeness", type=float, default=None,
                            help="ceiling-closeness parameter in (0, 0.5) "
                                 f"(default {RunConfig.closeness})")
        parser.add_argument("--refine", action=argparse.BooleanOptionalAction, default=None,
                            help="refine the noise ceiling with one training pass")
        parser.add_argument("--first-order-da", action=argparse.BooleanOptionalAction,
                            default=None, dest="first_order_da",
                            help="use the first-order disturbing/averaging boundary")


# option name -> RunConfig field name; "seed" is the run seed, kept beside the config
_FIELDS = {"eta": "eta", "features": "n_features", "epochs": "epochs",
           "fraction": "sample_fraction", "closeness": "closeness",
           "normalization": "normalization", "refine": "refine_noise",
           "first_order_da": "first_order_da", "seed": "seed"}


def _run_config(args) -> tuple[RunConfig, int]:
    """The run's config and seed: config-file values overridden by explicit flags.

    Defaults, and the type a config-file value must have, are those of the
    ``RunConfig`` fields; the seed defaults to 0.
    """
    defaults = {field.name: field.default for field in dataclasses.fields(RunConfig)} | {"seed": 0}
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_conf = json.loads(_read_text(config_path))
        except (OSError, ValueError) as exc:  # ValueError: JSON syntax
            raise DataError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise ArgumentError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_conf) - set(_FIELDS)
        if unknown:
            raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_conf.items():
            kind = type(defaults[_FIELDS[key]])
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise ArgumentError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
            merged[_FIELDS[key]] = value
    for key, field in _FIELDS.items():
        if getattr(args, key, None) is not None:
            merged[field] = getattr(args, key)
    seed = merged.pop("seed", defaults["seed"])
    return RunConfig(**merged), seed


def _load_dataset(args):
    return load_dataset(args.graph, args.values, weighted=args.weighted,
                        directed=args.directed, drop_isolated_nodes=args.drop_isolated)


def _load_graph(args):
    """The ``--graph`` edge list alone, for the commands that need no value file."""
    graph = load_graph(args.graph, weighted=args.weighted, directed=args.directed)
    return drop_isolated(graph) if args.drop_isolated else graph


def _emit(payload: dict, out_path=None, indent=2) -> None:
    try:
        text = json.dumps(payload, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity: a numeric error, never a bare JSON token
        raise NumericError(f"non-finite number in the output: {exc}") from None
    sys.stdout.write(text)
    if out_path and out_path != "-":  # stdout already holds the text
        with _open_out(out_path) as handle:
            handle.write(text)


def _prepare_at_sigma(args):
    """Config, seed, the seed's prepared split and ``--sigma-sq``; ``auto`` selects on it."""
    sigma_sq = None
    if args.sigma_sq != "auto":
        try:
            sigma_sq = float(args.sigma_sq)
        except ValueError:
            raise ArgumentError(
                f"--sigma-sq must be a number or 'auto', got {args.sigma_sq!r}") from None
        if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
            raise ArgumentError(f"--sigma-sq must be positive and finite, got {sigma_sq}")
    config, seed = _run_config(args)
    prepared = prepare(_load_dataset(args), config, seed)
    if sigma_sq is None:
        sigma_sq = select_prepared(prepared, config, seed).sigma_sq_ed
    return config, seed, prepared, sigma_sq


def cmd_stats(args) -> int:
    config, seed = _run_config(args)
    graph = _load_graph(args)
    sampled, _ = split_sample(graph.nodes, config.sample_fraction, seed)
    # the histogram's values are exact, so its ends are pairwise_stats' extremes
    histogram = pairwise_histogram(_Nonzeros.of_graph(graph, sampled, sampled))
    _emit({
        "n_sampled": len(sampled),
        "n_pairs": len(sampled) * (len(sampled) - 1) // 2,
        "d_sq_max": histogram[-1][0],
        "d_sq_min_nonzero": next((d_sq for d_sq, _ in histogram if d_sq > 0.0), None),
        "n_distinct_d_sq": len(histogram),
        "seed": seed,
        "fraction": config.sample_fraction,
    }, args.out)
    if args.hist_out:
        write_csv(args.hist_out, ("d_sq", "count"), histogram)
    return 0


def cmd_select(args) -> int:
    config, seed = _run_config(args)
    report = resolve_sigma_sq(_load_dataset(args), config, seed)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_train(args) -> int:
    config, seed, prepared, sigma_sq = _prepare_at_sigma(args)
    result = fit_prepared(prepared, config, sigma_sq, seed)
    save_model(args.model_out, result.model, referencing=result.sampled,
               value_scale=result.value_scale)
    if args.split_out:
        write_split_manifest(args.split_out, result.sampled, result.tested,
                             seed, config.sample_fraction)
    if args.trace_out:
        write_training_trace_csv(args.trace_out, result.training_trace)
    _emit({
        "sigma_sq": sigma_sq,
        "n_sampled": len(result.sampled),
        "n_tested": len(result.tested),
        "duration": result.training_trace.duration,
        "test_gnmse": result.gnmse,
        "model": args.model_out,
    })
    return 0


def cmd_predict(args) -> int:
    if args.nodes is not None and not args.nodes.replace(",", "").strip():
        raise ArgumentError("--nodes names no target node")
    model, meta = load_model(args.model)
    referencing, scale = meta["referencing"], meta["value_scale"]
    dataset_values = load_values(args.values) if args.values else None
    graph = _load_graph(args)
    if args.nodes:
        targets = [n.strip() for n in args.nodes.split(",") if n.strip()]
    else:
        targets = read_split_manifest(args.split)[1] if args.split else graph.nodes
    if dataset_values is not None:
        missing = [n for n in targets if n not in dataset_values]
        if missing:
            raise DataError(f"{len(missing)} target nodes have no value (first: {missing[0]!r})")
    _node_index(graph, "target", targets)  # an unknown target is named as one
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, before any output
        predictions = scale * model.predict_batch(_Nonzeros.of_graph(graph, targets, referencing))
    if not np.all(np.isfinite(predictions)):
        raise NumericError("predictions are not finite: the model's coefficients overflow")
    score = None if dataset_values is None else gnmse(
        np.array([dataset_values[n] for n in targets], dtype=np.float64), predictions)
    write_csv(args.out or "-", ("node_id", "prediction"), zip(targets, predictions.tolist()))
    if score is not None:
        _emit({"gnmse": score}, indent=None)
    return 0


def cmd_sweep(args) -> int:
    config, seed = _run_config(args)
    dataset = _load_dataset(args)
    report = resolve_sigma_sq(dataset, config, seed)
    if args.grid_min is not None or args.grid_max is not None:
        if args.grid_min is None or args.grid_max is None:
            raise ArgumentError("--grid-min and --grid-max must be given together")
        if not 0.0 < args.grid_min <= args.grid_max < float("inf") or args.grid_points < 1:
            raise ArgumentError("need 0 < --grid-min <= --grid-max < inf and --grid-points >= 1")
        values = np.geomspace(args.grid_min, args.grid_max, args.grid_points)
        grid = SweepGrid(sigma_sq_values=tuple(values), config=config,
                         marked_sigma_sq=report.sigma_sq_ed)
    else:
        grid = default_grid(report, config, points=args.grid_points)
    results = sweep(dataset, grid, repeats=args.repeats, base_seed=seed,
                    jobs=args.jobs, fixed_split=args.fixed_split)
    write_sweep_csv(args.out, results, marked_sigma_sq=grid.marked_sigma_sq)
    best = min(results, key=lambda r: r.gnmse_mean)
    _emit({
        "out": args.out,
        "grid_points": len(grid.sigma_sq_values),
        "repeats": args.repeats,
        "sigma_sq_ed": report.sigma_sq_ed,
        "best_sigma_sq": best.sigma_sq,
        "best_gnmse_mean": best.gnmse_mean,
    })
    return 0


def cmd_analyze(args) -> int:
    if not args.trace_out and not args.scatter_out:
        raise ArgumentError("nothing to do: pass --trace-out and/or --scatter-out")
    if args.trace_out and not args.test_node:
        raise ArgumentError("--trace-out needs --test-node")
    config, seed, prepared, sigma_sq = _prepare_at_sigma(args)
    summary = {"sigma_sq": sigma_sq}
    if args.trace_out:
        result = fit_prepared(prepared, config, sigma_sq, seed, probe_node=args.test_node)
        summary.update(trace_out=args.trace_out, trace_rows=result.training_trace.duration,
                       gnmse=result.gnmse)
    if args.scatter_out:
        rows = export_scatter(prepared._nonzeros, prepared.train_values)
        write_scatter_csv(args.scatter_out, rows)
        summary.update(scatter_out=args.scatter_out, scatter_rows=int(rows.shape[0]))
    if args.trace_out:  # after the scatter, which can fail: a failing run writes no file
        write_bf_trace_csv(args.trace_out, export_bf_trace(result))
    _emit(summary)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process; ``main`` looks up ``cmd_<command>`` per call."""
    parser = argparse.ArgumentParser(
        prog="skg",
        description="Single-kernel Gradraker: train and analyze a random-feature "
                    "learner for nodal values on graphs.",
    )
    parser.add_argument("--version", action="version", version=f"skg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="pairwise-distance statistics of a sampled split")
    _add_dataset_flags(p_stats, values_required=False)
    _add_config_flags(p_stats, include_selection=False)
    p_stats.add_argument("--out", help="also write the JSON summary here")
    p_stats.add_argument("--hist-out", help="write the full distance histogram CSV here")

    p_select = sub.add_parser("select", help="closed-form kernel-variance selection")
    _add_dataset_flags(p_select)
    _add_config_flags(p_select)
    p_select.add_argument("--out", help="also write the report JSON here")

    p_train = sub.add_parser("train", help="train a model on a seeded split")
    _add_dataset_flags(p_train)
    _add_config_flags(p_train)
    p_train.add_argument("--sigma-sq", default="auto",
                         help="kernel variance, or 'auto' to select it (default auto)")
    p_train.add_argument("--model-out", required=True, help="write the model JSON here")
    p_train.add_argument("--split-out", help="write the split manifest JSON here")
    p_train.add_argument("--trace-out", help="write the training trace CSV here")

    p_predict = sub.add_parser("predict", help="predict nodal values with a trained model")
    p_predict.add_argument("--model", required=True, help="model JSON from 'train'")
    _add_dataset_flags(p_predict, values_required=False)
    p_predict.add_argument("--nodes", help="comma-separated target node ids")
    p_predict.add_argument("--split", help="split manifest; predict its tested nodes")
    p_predict.add_argument("--out", help="prediction CSV path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="repeated runs over a variance grid")
    _add_dataset_flags(p_sweep)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--grid-min", type=float, help="lowest variance of a manual grid")
    p_sweep.add_argument("--grid-max", type=float, help="highest variance of a manual grid")
    p_sweep.add_argument("--grid-points", type=int, default=25,
                         help="number of grid points (default 25)")
    p_sweep.add_argument("--repeats", type=int, default=50,
                         help="seeded repetitions per grid point (default 50)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (default 1)")
    p_sweep.add_argument("--fixed-split", action="store_true",
                         help="pin the split of the base seed for all repeats")
    p_sweep.add_argument("--out", required=True, help="sweep CSV path")

    p_analyze = sub.add_parser("analyze", help="diagnostic exports for one run")
    _add_dataset_flags(p_analyze)
    _add_config_flags(p_analyze)
    p_analyze.add_argument("--sigma-sq", default="auto",
                           help="kernel variance, or 'auto' (default auto)")
    p_analyze.add_argument("--test-node", help="tested node whose weight trace to export")
    p_analyze.add_argument("--trace-out", help="weight-trace CSV path")
    p_analyze.add_argument("--scatter-out", help="distance/value-difference scatter CSV path")

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        for name, path in vars(args).items():  # before any input is read or output written
            if ((name == "out" or name.endswith("_out")) and path not in (None, "-")
                    and not os.path.isdir(os.path.dirname(path) or ".")):
                raise DataError(f"--{name.replace('_', '-')} {path}: no such directory")
        return globals()[f"cmd_{args.command}"](args)
    except SkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code
    except MemoryError as exc:  # an option too large for this machine: one line, no traceback
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return ArgumentError.exit_code


if __name__ == "__main__":
    sys.exit(main())
