"""Synthetic planted-community datasets.

Nodes split into communities; edges appear with high probability inside a
community and low probability across, and each nodal value is its
community mean plus small noise. By construction, similar adjacency
vectors imply similar nodal values, so the extending/disturbing boundary
is an optimal operating point rather than merely a near-optimal one.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .errors import ArgumentError
from .graph_data import Dataset, Graph


def planted_community_dataset(n_nodes: int = 200, n_communities: int = 4,
                              p_in: float = 0.8, p_out: float = 0.05,
                              value_noise: float = 0.02, seed: int = 0,
                              name: str = "") -> Dataset:
    """Build an undirected planted-community dataset.

    Communities are contiguous blocks of near-equal size with means
    1..n_communities; ``value_noise`` is the standard deviation of the
    per-node perturbation.
    """
    if n_nodes < 2 or n_communities < 1 or n_communities > n_nodes:
        raise ArgumentError("need at least 2 nodes and 1 <= n_communities <= n_nodes")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ArgumentError("probabilities must satisfy 0 <= p_out <= p_in <= 1")
    if value_noise < 0:
        raise ArgumentError(f"value_noise must be nonnegative, got {value_noise}")

    community = np.array([min(i * n_communities // n_nodes, n_communities - 1)
                          for i in range(n_nodes)])
    graph_rng = streams.stream(seed, streams.GRAPH)
    value_rng = streams.stream(seed, streams.VALUES)

    edges = []
    for i in range(n_nodes - 1):
        p = np.where(community[i + 1:] == community[i], p_in, p_out)
        hits = np.nonzero(graph_rng.random(n_nodes - 1 - i) < p)[0]
        edges.extend((i, i + 1 + int(j)) for j in hits)

    values = {
        i: float(community[i] + 1.0 + value_noise * value_rng.standard_normal())
        for i in range(n_nodes)
    }
    graph = Graph(edges, directed=False, nodes=range(n_nodes))
    return Dataset(graph=graph, values=values, name=name or "planted-community")
