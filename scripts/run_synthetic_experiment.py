#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on a planted-community dataset.

Generates the dataset, selects the kernel variance, sweeps a log grid
around it, and exports the diagnostic tables (sweep curve, weight traces
at one variance per regime, distance/value scatter) into an output
directory. Selection, traces and scatter share one prepared split of the
run seed; the sweep prepares each of its seeds' splits itself. Everything
is seeded and reproducible.

    PYTHONPATH=src python scripts/run_synthetic_experiment.py --out synthetic_experiment
"""

import argparse
import json
from pathlib import Path

import skg
from skg.harness import write_bf_trace_csv, write_scatter_csv


def write_dataset_csvs(dataset, out_dir: Path) -> None:
    with open(out_dir / "edges.csv", "w", encoding="utf-8") as handle:
        handle.write("# planted-community graph (undirected, unweighted)\n")
        for src, dst, _ in dataset.graph.edges:
            handle.write(f"{src},{dst}\n")
    with open(out_dir / "values.csv", "w", encoding="utf-8") as handle:
        for node, value in dataset.values.items():
            handle.write(f"{node},{value!r}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="synthetic_experiment", help="output directory")
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--communities", type=int, default=5)
    parser.add_argument("--p-in", type=float, default=0.8)
    parser.add_argument("--p-out", type=float, default=0.05)
    parser.add_argument("--value-noise", type=float, default=0.02)
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--features", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--fraction", type=float, default=0.4)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--grid-points", type=int, default=25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset = skg.planted_community_dataset(
        n_nodes=args.nodes, n_communities=args.communities, p_in=args.p_in,
        p_out=args.p_out, value_noise=args.value_noise, seed=args.seed,
    )
    write_dataset_csvs(dataset, out_dir)

    config = skg.RunConfig(eta=args.eta, n_features=args.features, epochs=args.epochs,
                           sample_fraction=args.fraction)
    prepared = skg.prepare(dataset, config, seed=args.seed)
    report = skg.select_prepared(prepared, config, seed=args.seed)
    with open(out_dir / "selection_report.json", "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    print(f"selected variance: {report.sigma_sq_ed:.4f} "
          f"(boundaries {report.sigma_sq_ce:.4f} / {report.sigma_sq_da:.4f})")

    grid = skg.default_grid(report, config, points=args.grid_points)
    results = skg.sweep(dataset, grid, repeats=args.repeats, base_seed=args.seed,
                        jobs=args.jobs)
    skg.write_sweep_csv(out_dir / "sweep.csv", results, marked_sigma_sq=grid.marked_sigma_sq)
    best = min(results, key=lambda r: r.gnmse_mean)
    print(f"sweep: best mean gnmse {best.gnmse_mean:.4f} at variance {best.sigma_sq:.4f} "
          f"({len(results)} grid points x {args.repeats} repeats)")

    # one weight trace per regime, same probe node throughout
    regimes = {
        "chaos": report.sigma_sq_ce / 10,
        "extending": (report.sigma_sq_ce * report.sigma_sq_ed) ** 0.5,
        "selected": report.sigma_sq_ed,
        "averaging": report.sigma_sq_da * 10,
    }
    for name, sigma_sq in regimes.items():
        result = skg.fit_prepared(prepared, config, sigma_sq, seed=args.seed,
                                  probe_node=prepared.tested[0])
        write_bf_trace_csv(out_dir / f"trace_{name}.csv", skg.export_bf_trace(result))
        print(f"trace[{name}] sigma_sq={sigma_sq:.4f} gnmse={result.gnmse:.4f} "
              f"probe={result.probe_node}")

    # the sampled matrix's nonzero record, already built for selection: no second arc sort
    rows = skg.export_scatter(prepared._nonzeros, prepared.train_values)
    write_scatter_csv(out_dir / "scatter.csv", rows)
    print(f"wrote {out_dir}/: edges, values, selection_report, sweep, traces, scatter")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
