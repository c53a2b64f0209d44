"""Graph ingestion and training-set construction.

Connection data is a plain edge list. Every learner input is an adjacency
vector: the row of edge weights from one node toward an ordered list of
referencing nodes (for directed graphs, the node's out-edges). A training
set pairs adjacency vectors of sampled nodes with their known nodal values.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from . import streams
from .errors import ArgumentError, DataError, DegenerateInputError

NodeId = Hashable

NORMALIZATION_POLICIES = ("max-abs", "none")


class Graph:
    """Weighted graph over opaque node ids.

    Nodes are registered in first-seen order. Edge weights must be finite
    and nonnegative (1.0 for unweighted data). For undirected graphs an
    edge is visible from both endpoints. Instances are never mutated after
    construction, so they are safe to share across threads.
    """

    def __init__(
        self,
        edges: Iterable[Sequence],
        directed: bool = False,
        nodes: Iterable[NodeId] = (),
    ):
        self.directed = bool(directed)
        self._order: list[NodeId] = []
        self._out: dict[NodeId, dict[NodeId, float]] = {}
        for node in nodes:
            self._register(node)
        collected = []
        for edge in edges:
            src, dst = edge[0], edge[1]
            weight = float(edge[2]) if len(edge) > 2 else 1.0
            if not math.isfinite(weight) or weight < 0:
                raise DataError(
                    f"edge weight must be finite and nonnegative, got {weight!r} on ({src!r}, {dst!r})"
                )
            self._register(src)
            self._register(dst)
            # duplicate edges: last occurrence wins
            self._out[src][dst] = weight
            if not self.directed:
                self._out[dst][src] = weight
            collected.append((src, dst, weight))
        self._edges = tuple(collected)

    def _register(self, node: NodeId) -> None:
        if node not in self._out:
            self._out[node] = {}
            self._order.append(node)

    @property
    def nodes(self) -> tuple:
        return tuple(self._order)

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def num_nodes(self) -> int:
        return len(self._order)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._out

    def weight(self, src: NodeId, dst: NodeId) -> float:
        """Weight of the edge src->dst (either direction when undirected); 0.0 if absent."""
        return self._out.get(src, {}).get(dst, 0.0)

    def out_degree(self, node: NodeId) -> int:
        return len(self._out[node])


@dataclass(frozen=True)
class TrainingSet:
    """Adjacency vectors of the sampled nodes paired with their nodal values."""

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if vectors.ndim != 2:
            raise ArgumentError(f"vectors must be a 2-d array, got shape {vectors.shape}")
        if values.shape != (vectors.shape[0],):
            raise ArgumentError(
                f"values shape {values.shape} does not match {vectors.shape[0]} vectors"
            )
        if vectors.shape[0] < 1:
            raise ArgumentError("a training set needs at least one sampled node")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class PairwiseStats:
    """Squared-distance statistics over all unordered pairs of adjacency vectors."""

    d_sq_max: float
    d_sq_min_nonzero: float | None
    n_pairs: int


@dataclass(frozen=True)
class Dataset:
    """A graph together with one nodal value per node."""

    graph: Graph
    values: dict
    name: str = ""

    def __post_init__(self):
        missing = [n for n in self.graph.nodes if n not in self.values]
        if missing:
            raise DataError(
                f"{len(missing)} graph nodes have no nodal value (first: {missing[0]!r})"
            )
        extra = [n for n in self.values if n not in self.graph]
        if extra:
            raise DataError(
                f"{len(extra)} value entries refer to unknown nodes (first: {extra[0]!r})"
            )

    @property
    def node_ids(self) -> tuple:
        return self.graph.nodes

    def value_array(self, node_ids: Sequence[NodeId]) -> np.ndarray:
        return np.array([self.values[n] for n in node_ids], dtype=np.float64)


def _parse_csv_rows(path: Path):
    """Yield (line_number, fields) for non-comment, non-blank CSV lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, [part.strip() for part in line.split(",")]


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-joined line per row; ``path`` "-" is stdout.

    Floats are written with ``repr`` (shortest exact round trip), ``None``
    as an empty cell, anything else with ``str``. ``rows`` may be a 2-d
    numeric array: it is converted to Python numbers a few thousand rows
    at a time, whose ``repr`` is that same text and formats faster than
    numpy scalars, without copying the whole array.
    """
    target = contextlib.nullcontext(sys.stdout) if path == "-" else open(
        path, "w", encoding="utf-8")
    with target as handle:
        handle.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), 4096):
                handle.writelines(",".join(map(repr, row)) + "\n"
                                  for row in rows[start:start + 4096].tolist())
        else:
            handle.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def load_graph(path, weighted: bool = False, directed: bool = False) -> Graph:
    """Load an edge-list CSV (``src,dst[,weight]``, ``#`` comments ignored).

    With ``weighted`` the optional third column is used (default 1.0 when
    absent); otherwise every edge gets weight 1.0. Malformed lines and
    negative weights raise :class:`DataError` with the line number.
    """
    path = Path(path)
    edges = []
    for lineno, fields in _parse_csv_rows(path):
        if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
            raise DataError(f"{path}:{lineno}: expected 'src,dst[,weight]', got {fields!r}")
        src, dst = fields[0], fields[1]
        weight = 1.0
        if weighted and len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: weight {fields[2]!r} is not a number") from None
        if not math.isfinite(weight) or weight < 0:
            raise DataError(f"{path}:{lineno}: weight must be finite and nonnegative, got {weight}")
        edges.append((src, dst, weight))
    return Graph(edges, directed=directed)


def load_values(path) -> dict:
    """Load a ``node_id,value`` CSV into an id->value mapping."""
    path = Path(path)
    values: dict = {}
    for lineno, fields in _parse_csv_rows(path):
        if len(fields) != 2 or not fields[0]:
            raise DataError(f"{path}:{lineno}: expected 'node_id,value', got {fields!r}")
        node = fields[0]
        if node in values:
            raise DataError(f"{path}:{lineno}: duplicate value for node {node!r}")
        try:
            value = float(fields[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {fields[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: value must be finite, got {value}")
        values[node] = value
    return values


def load_dataset(graph_path, values_path, weighted=False, directed=False,
                 drop_isolated_nodes=False, name="") -> Dataset:
    """Load a graph and its value file into a consistent :class:`Dataset`."""
    graph = load_graph(graph_path, weighted=weighted, directed=directed)
    if drop_isolated_nodes:
        graph = drop_isolated(graph)
    values = load_values(values_path)
    values = {n: v for n, v in values.items() if n in graph}
    return Dataset(graph=graph, values=values, name=name or Path(graph_path).stem)


def drop_isolated(graph: Graph) -> Graph:
    """Drop nodes whose adjacency vector would be all-zero.

    For directed graphs these are nodes with no out-edges; for undirected
    graphs, nodes with no incident edges. Edges touching dropped nodes are
    removed as well (single pass).
    """
    keep = {n for n in graph.nodes if graph.out_degree(n) > 0}
    edges = [(s, d, w) for s, d, w in graph.edges if s in keep and d in keep]
    nodes = [n for n in graph.nodes if n in keep]
    return Graph(edges, directed=graph.directed, nodes=nodes)


def build_adjacency_vectors(graph: Graph, sampled: Sequence[NodeId],
                            referencing: Sequence[NodeId]) -> np.ndarray:
    """Adjacency vectors of ``sampled`` nodes against an ordered referencing set.

    Entry ``[n, m]`` is the weight of the edge from ``sampled[n]`` toward
    ``referencing[m]`` (out-edge for directed graphs) and 0.0 when the two
    nodes are not connected.
    """
    if len(referencing) == 0:
        raise ArgumentError("referencing set must be non-empty")
    if len(set(referencing)) != len(referencing):
        raise ArgumentError("referencing nodes must be unique")
    for node in sampled:
        if node not in graph:
            raise DataError(f"sampled node {node!r} is not in the graph")
    for node in referencing:
        if node not in graph:
            raise DataError(f"referencing node {node!r} is not in the graph")
    vectors = np.zeros((len(sampled), len(referencing)), dtype=np.float64)
    column = {node: m for m, node in enumerate(referencing)}
    for n, node in enumerate(sampled):
        for dst, weight in graph._out[node].items():
            m = column.get(dst)
            if m is not None:
                vectors[n, m] = weight
    return vectors


# Rows per Gram block of the pairwise scan; its memory is O(_SCAN_CHUNK * n).
_SCAN_CHUNK = 256


def _pair_d_sq(vectors: np.ndarray, first, second) -> np.ndarray:
    """Squared distances of the pairs (``first``, ``second``) from their differences.

    This is the definitional value every pairwise output reports; the
    Gram scan only decides which pairs need it.
    """
    diff = vectors[second] - vectors[first]
    return np.einsum("ij,ij->i", diff, diff)


def _pair_input(vectors) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ArgumentError("pairwise statistics need at least two vectors")
    return vectors


def pairwise_stats(vectors: np.ndarray) -> PairwiseStats:
    """Largest and smallest nonzero squared Euclidean distance over all unordered pairs.

    Distances are scanned as ||a||^2 + ||b||^2 - 2 a.b, one Gram block of
    ``_SCAN_CHUNK`` rows at a time, so memory stays O(_SCAN_CHUNK * n).
    A Gram value differs from the difference-based value by at most
    8 (m + 2) eps max||a||^2 for m-long vectors. Every pair whose Gram
    value lies within twice that bound of its block's maximum, of zero or
    of the block's smallest value above the bound is recomputed from its
    difference, so both reported distances are exactly those of the
    definitional pair-by-pair scan, on weighted as on 0/1 vectors.
    ``d_sq_min_nonzero`` is ``None`` when every pair coincides.
    """
    vectors = _pair_input(vectors)
    n, m = vectors.shape
    norms = np.einsum("ij,ij->i", vectors, vectors)
    tol = 16.0 * (m + 2) * np.finfo(np.float64).eps * float(norms.max())
    batch = max(_SCAN_CHUNK, _SCAN_CHUNK * n // max(m, 1))
    d_max, d_min = 0.0, math.inf
    for start in range(0, n - 1, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, n - 1)
        gram = vectors[start:stop] @ vectors[start:].T
        d_sq = norms[start:stop, None] + norms[start:] - 2.0 * gram
        upper = np.arange(n - start) > np.arange(stop - start)[:, None]
        high = d_sq.max(where=upper, initial=-math.inf)
        low = d_sq.min(where=upper & (d_sq > tol), initial=math.inf)
        rows, cols = np.nonzero(upper & ((d_sq >= high - 2.0 * tol) | (d_sq <= low + 2.0 * tol)))
        for at in range(0, rows.size, batch):
            exact = _pair_d_sq(vectors, rows[at:at + batch] + start, cols[at:at + batch] + start)
            d_max = max(d_max, float(exact.max()))
            d_min = min(d_min, float(exact.min(where=exact > 0.0, initial=math.inf)))
    return PairwiseStats(d_sq_max=d_max, d_sq_min_nonzero=None if d_min == math.inf else d_min,
                         n_pairs=n * (n - 1) // 2)


def pairwise_histogram(vectors: np.ndarray) -> tuple[tuple[float, int], ...]:
    """Distinct squared distances over all unordered pairs with their pair counts.

    Every pair is computed from its difference, one row at a time, so the
    values are exact in the sense of :func:`pairwise_stats`.
    """
    vectors = _pair_input(vectors)
    d_sq = np.concatenate([_pair_d_sq(vectors, i, slice(i + 1, None))
                           for i in range(vectors.shape[0] - 1)])
    unique, counts = np.unique(d_sq, return_counts=True)
    return tuple((float(v), int(c)) for v, c in zip(unique, counts))


def normalize_values(train_values, other_values=()):
    """Divide all values by the largest absolute training value.

    Returns ``(scale, train_normalized, other_normalized)``. The scale is
    reported so predictions can be mapped back to original units.
    """
    train = np.asarray(train_values, dtype=np.float64)
    other = np.asarray(other_values, dtype=np.float64)
    if train.size == 0:
        raise ArgumentError("no training values to normalize")
    scale = float(np.max(np.abs(train)))
    if scale == 0.0:
        raise DegenerateInputError("all training values are zero; normalization undefined")
    return scale, train / scale, other / scale


def apply_normalization(policy: str, train_values, other_values=()):
    """Dispatch on a named normalization policy ("max-abs" or "none")."""
    if policy == "max-abs":
        return normalize_values(train_values, other_values)
    if policy == "none":
        train = np.asarray(train_values, dtype=np.float64)
        other = np.asarray(other_values, dtype=np.float64)
        return 1.0, train, other
    raise ArgumentError(f"unknown normalization policy {policy!r}; known: {NORMALIZATION_POLICIES}")


def split_sample(node_ids: Sequence[NodeId], fraction: float, seed: int):
    """Seeded random split into (sampled, tested) node lists.

    The sampled size is ``round(fraction * total)``; the two lists are a
    disjoint union of the input and the draw is reproducible per seed.
    """
    if len(node_ids) == 0:
        raise ArgumentError("cannot split an empty node list")
    if not (0.0 < fraction <= 1.0):
        raise ArgumentError(f"sample fraction must lie in (0, 1], got {fraction}")
    rng = streams.stream(seed, streams.SPLIT)
    order = rng.permutation(len(node_ids))
    k = int(round(fraction * len(node_ids)))
    sampled = [node_ids[i] for i in order[:k]]
    tested = [node_ids[i] for i in order[k:]]
    return sampled, tested


def write_split_manifest(path, sampled, tested, seed: int, fraction: float) -> None:
    """Record a split as JSON so it can be reproduced exactly."""
    payload = {
        "format": "skg-split-v1",
        "seed": int(seed),
        "fraction": float(fraction),
        "sampled": list(sampled),
        "tested": list(tested),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_split_manifest(path):
    """Load a split manifest; returns (sampled, tested, seed, fraction)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != "skg-split-v1":
        raise DataError(f"{path}: not a split manifest")
    return payload["sampled"], payload["tested"], payload["seed"], payload["fraction"]
