"""Seeded input generator for the skg benchmark.

Each workload is a planted-community graph: nodes fall into contiguous
communities, an edge appears with probability ``p_in`` inside a community
and ``p_out`` across, and each nodal value is its community index plus
Gaussian noise. The generator draws from its own numpy stream keyed by
(seed, workload, instance), so the inputs do not depend on any code under test.
Orientation (directed shapes) and edge weights (weighted shapes) come from
the same stream. A workload seed yields several independent graph
instances of one shape. The program only ever sees the CSV files written
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Input properties fixed by a workload."""

    n_nodes: int
    n_communities: int
    p_in: float
    p_out: float
    directed: bool
    weighted: bool
    value_noise: float = 0.02

    def describe(self) -> str:
        kind = "directed" if self.directed else "undirected"
        weights = "weighted" if self.weighted else "unweighted"
        return (f"{self.n_nodes} nodes, {self.n_communities} communities, "
                f"p_in={self.p_in}, p_out={self.p_out}, {kind}, {weights}")


SHAPES = {
    # Cora-sized (~32k directed edges): the O(n^2) pairwise scan of `select`
    # dominates, and train runs the longest sequence (T = 3240).
    "cora-select": Shape(2700, 7, 0.05, 0.002, directed=True, weighted=False),
    # Weighted mid-size graph: `select --refine` and `analyze` spend their time
    # in the O(T^2) contribution-weight recursion; the scan sees real weights.
    "refine-weighted": Shape(1000, 7, 0.05, 0.002, directed=False, weighted=True),
    # The 200-node acceptance-sweep shape: many short runs (T = 240).
    "sweep-grid": Shape(200, 5, 0.8, 0.05, directed=False, weighted=False),
}

WORKLOAD_KEYS = {name: index for index, name in enumerate(sorted(SHAPES))}


def generate(shape: Shape, workload_key: int, seed: int, instance: int):
    """Return (edges, values): edges as (src, dst, weight) rows, values per node."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(workload_key), int(instance)]))
    n, k = shape.n_nodes, shape.n_communities
    community = np.arange(n) * k // n
    sources, targets = [], []
    for i in range(n - 1):
        p = np.where(community[i + 1:] == community[i], shape.p_in, shape.p_out)
        hits = np.nonzero(rng.random(n - 1 - i) < p)[0] + i + 1
        sources.append(np.full(hits.size, i))
        targets.append(hits)
    src = np.concatenate(sources)
    dst = np.concatenate(targets)
    if shape.directed:
        flip = rng.random(src.size) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
    if shape.weighted:
        weight = rng.uniform(0.5, 2.0, size=src.size)
    else:
        weight = np.ones(src.size)
    values = (community + 1) + shape.value_noise * rng.standard_normal(n)
    return list(zip(src.tolist(), dst.tolist(), weight.tolist())), values.tolist()


def write_inputs(workload: str, seed: int, instance: int, out_dir: Path) -> dict:
    """Write ``edges.csv`` and ``values.csv`` for one instance of a workload seed.

    Returns the paths and the CLI dataset flags the workload needs.
    """
    shape = SHAPES[workload]
    edges, values = generate(shape, WORKLOAD_KEYS[workload], seed, instance)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph_path = out_dir / "edges.csv"
    values_path = out_dir / "values.csv"
    with open(graph_path, "w", encoding="utf-8") as handle:
        if shape.weighted:
            handle.writelines(f"{s},{d},{w!r}\n" for s, d, w in edges)
        else:
            handle.writelines(f"{s},{d}\n" for s, d, _ in edges)
    with open(values_path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{node},{value!r}\n" for node, value in enumerate(values))
    flags = ["--graph", str(graph_path), "--values", str(values_path)]
    if shape.weighted:
        flags.append("--weighted")
    if shape.directed:
        flags.append("--directed")
    return {"graph": str(graph_path), "values": str(values_path), "flags": flags}
