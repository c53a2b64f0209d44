"""Graph ingestion and training-set construction.

Connection data is a plain edge list. Every learner input is an adjacency
vector: the row of edge weights from one node toward an ordered list of
referencing nodes (for directed graphs, the node's out-edges). A training
set pairs adjacency vectors of sampled nodes with their known nodal values.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import re
import sys
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import streams
from .errors import ArgumentError, DataError, DegenerateInputError, NumericError

NodeId = Hashable

NORMALIZATION_POLICIES = ("max-abs", "none")


class Graph:
    """Weighted graph over opaque node ids, as node-index and weight arrays.

    Nodes are numbered in first-seen order. Edge weights must be finite and
    nonnegative (1.0 for unweighted data). An edge is one head->tail arc,
    and on undirected graphs two (src->dst, then dst->src). Instances are
    never mutated after construction, so they are safe to share across threads.
    """

    def __init__(self, edges: Iterable[Sequence], directed: bool = False,
                 nodes: Iterable[NodeId] = ()):
        rows = [(edge[0], edge[1], float(edge[2]) if len(edge) > 2 else 1.0) for edge in edges]
        weights = [row[2] for row in rows]
        if not _valid_weights(weights):
            head, tail, bad = next(row for row in rows if not _valid_weights(row[2:]))
            raise DataError(f"edge weight must be finite and nonnegative, got {bad!r} "
                            f"on ({head!r}, {tail!r})")
        # any hashable ids, numbered in first-seen order over ``nodes``, then src0, dst0, ...
        ids = [end for row in rows for end in row[:2]]
        order = dict.fromkeys(itertools.chain(nodes, ids))
        index = dict(zip(order, range(len(order))))
        self._build(index, np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)),
                    np.array(weights, dtype=float), directed)

    def _build(self, index: dict, ends: np.ndarray, weights: np.ndarray, directed) -> None:
        # The one builder: node -> number, the numbers of src0, dst0, src1, ... and a weight
        # per edge, all checked by the caller
        self._index: dict[NodeId, int] = index
        self._ends, self._weights, self.directed = ends, weights, bool(directed)

    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Head index, tail index and weight of every arc, in input edge order."""
        pairs = self._ends.reshape(-1, 2)
        if self.directed:
            return pairs[:, 0], pairs[:, 1], self._weights
        return self._ends, pairs[:, ::-1].ravel(), np.repeat(self._weights, 2)

    @property
    def nodes(self) -> tuple:
        return tuple(self._index)

    @property
    def edges(self) -> tuple:
        """``(src, dst, weight)`` per input edge, duplicates included; built on each access."""
        ends = map(self.nodes.__getitem__, self._ends.tolist())
        return tuple(zip(ends, ends, self._weights.tolist()))  # one iterator: src, then dst

    @property
    def num_nodes(self) -> int:
        return len(self._index)

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index


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
        # key views decide; the lists only name the first offender
        if not self.graph._index.keys() <= self.values.keys():
            missing = [n for n in self.graph.nodes if n not in self.values]
            raise DataError(
                f"{len(missing)} graph nodes have no nodal value (first: {missing[0]!r})"
            )
        if not self.values.keys() <= self.graph._index.keys():
            extra = [n for n in self.values if n not in self.graph]
            raise DataError(
                f"{len(extra)} value entries refer to unknown nodes (first: {extra[0]!r})"
            )

    @property
    def node_ids(self) -> tuple:
        return self.graph.nodes

    def value_array(self, node_ids: Sequence[NodeId]) -> np.ndarray:
        return np.array([self.values[n] for n in node_ids], dtype=np.float64)


def _read_text(path) -> str:
    """The file decoded as UTF-8, with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``; a leading
    byte-order mark, which Excel and Notepad write, is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{Path(path)}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                        ) from None


def _tokens(text: str, widths: tuple[int, ...], fill: str = "", clean: bool = False
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data lines as UTF-8 bytes, and the byte span of every stripped field.

    Returns ``(raw, starts, stops)``: ``raw`` holds the data lines, each
    ended by a line feed, and field j of data line i is
    ``raw[starts[i, j]:stops[i, j]]``, followed by its comma or line feed.
    Blank lines and ``#`` comments are skipped. Raises ``ValueError`` if a
    data line does not have one of ``widths`` fields; a line narrower than
    the widest is padded with ``fill`` fields. A text that is ``clean``, or
    whose bytes hold no blank line, ``#``, non-ASCII byte or whitespace but
    the line feed, is split in one pass; any other is first rewritten to
    that form. Fields are split over the UTF-8 bytes: no multibyte
    character holds a comma or line feed byte.
    """
    data = text.encode("utf-8")
    raw = np.frombuffer(data if data.endswith(b"\n") or not data else data + b"\n", np.uint8)
    feeds = raw == ord("\n")
    # a blank line, "#", a byte no ASCII text has, or one str.strip removes (9-13, 28-32)
    if not clean and (feeds[:1].any() or (feeds[1:] & feeds[:-1]).any()
                      or raw.max(initial=0) >= 128 or (raw == ord("#")).any()
                      or (((raw - 9) <= 4) ^ feeds).any() or ((raw - 28) <= 4).any()):
        kept = [line for line in map(str.strip, text.split("\n")) if line and line[0] != "#"]
        return _tokens(re.sub(r"[^\S\n]*,[^\S\n]*", ",", "\n".join(kept)), widths, fill, True)
    ends = np.flatnonzero(feeds | (raw == ord(",")))  # the byte after each field
    commas = np.diff(np.flatnonzero(feeds[ends]), prepend=-1) - 1  # per line
    if not np.isin(commas, np.subtract(widths, 1)).all():
        raise ValueError("a data line has the wrong number of fields")
    width = int(commas.max(initial=min(widths) - 1)) + 1
    if commas.size and commas.min() < width - 1:
        return _tokens("\n".join(line + ("," + fill) * (width - 1 - count)
                                 for line, count in zip(text.split("\n"), commas.tolist())),
                       (width,), clean=True)
    return raw, np.concatenate(([0], ends + 1))[:-1].reshape(-1, width), ends.reshape(-1, width)


def _decode(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """The fields ``raw[start:stop]`` of :func:`_tokens` spans, decoded in one call."""
    sizes = stops - starts + 1  # a field and the separator after it
    offsets = np.cumsum(sizes)
    picked = raw[np.repeat(starts + sizes - offsets, sizes) + np.arange(sizes.sum())]
    picked[offsets - 1] = ord("\n")
    return picked.tobytes().decode("utf-8").split("\n")[:-1]


# _KEEP[k] keeps the first k bytes of a little-endian 8-byte word
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _number(raw: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct strings at the given spans in first-seen order, and each span's index there.

    A span's key is its bytes as 8-byte little-endian words, zero past its
    end, and its length, so spans differing only by trailing zero bytes stay
    apart; when no span is longer than 7 bytes the length takes the one
    word's top byte. One sort groups equal keys, the smallest position in a
    group is its first occurrence, and only those spans are decoded.
    """
    lengths = stops - starts
    longest = int(lengths.max(initial=0))
    words = np.ndarray((raw.size + 1,), "<u8", np.concatenate((raw, np.zeros(8, np.uint8))),
                       strides=(1,))  # the 8 bytes from every position
    keys = [np.take(words, starts + at, mode="clip") & np.take(_KEEP, lengths - at, mode="clip")
            for at in range(0, max(longest, 1), 8)]  # a clipped index reads no byte or all 8
    if longest < 8:
        keys[0] |= lengths.astype(np.uint64) << np.uint64(56)
    else:
        keys.append(lengths)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)  # where a group of equal keys starts in ``order``
    for key in keys:
        new[1:] |= np.diff(key[order]) != 0
    new[:1] = True
    heads = np.flatnonzero(new)
    first = np.minimum.reduceat(order, heads)
    seen = np.sort(first)  # the groups' first positions, in first-seen order
    index = np.empty_like(order)
    index[order] = np.repeat(np.searchsorted(seen, first), np.diff(heads, append=order.size))
    return _decode(raw, starts[seen], stops[seen]), index


def _valid_weights(weights) -> bool:
    """Whether every weight is finite and nonnegative."""
    weights = np.asarray(weights, dtype=np.float64)
    return bool(np.isfinite(weights).all() and weights.min(initial=0.0) >= 0.0)


def _raise_first_bad_line(path, text: str, problem) -> NoReturn:
    """Raise :class:`DataError` at the first data line whose fields ``problem`` refuses.

    ``problem`` takes a line's stripped fields and returns the message for
    that line, or ``None`` when the line is good. It runs only on a file the
    whole-column checks refused, so some line must be bad.
    """
    for lineno, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if line and line[0] != "#":
            message = problem([part.strip() for part in line.split(",")])
            if message:
                raise DataError(f"{Path(path)}:{lineno}: {message}")
    raise AssertionError(f"{Path(path)}: refused by the column checks, but no line is bad")


def _edge_problem(fields: list, weighted: bool) -> str | None:
    if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
        return f"expected 'src,dst[,weight]', got {fields!r}"
    if weighted and len(fields) == 3:
        try:
            weight = float(fields[2])
        except ValueError:
            return f"weight {fields[2]!r} is not a number"
        if not _valid_weights([weight]):
            return f"weight must be finite and nonnegative, got {weight}"
    return None


def _value_problem(fields: list, seen: set) -> str | None:
    if len(fields) != 2 or not fields[0]:
        return f"expected 'node_id,value', got {fields!r}"
    if fields[0] in seen:
        return f"duplicate value for node {fields[0]!r}"
    seen.add(fields[0])
    try:
        value = float(fields[1])
    except ValueError:
        return f"value {fields[1]!r} is not a number"
    return None if math.isfinite(value) else f"value must be finite, got {value}"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def _open_out(path):
    """A text handle to write an output to: stdout for ``path`` "-", else the UTF-8 file."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """Write a header line and one comma-joined line per row; ``path`` "-" is stdout.

    Floats are written with ``repr`` (shortest exact round trip), ``None``
    as an empty cell, anything else with ``str``. ``rows`` may be a 2-d
    numeric array: it is converted to Python numbers a thousand rows at a
    time, whose ``repr`` is that same text and formats faster than numpy
    scalars, and each such chunk is written by one ``%`` format, without
    copying the whole array or holding more than a chunk of its text.
    """
    with _open_out(path) as handle:
        handle.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%r"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), 1024):
                chunk = rows[start:start + 1024].tolist()
                handle.write(line * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))
        else:
            handle.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def load_graph(path, weighted: bool = False, directed: bool = False) -> Graph:
    """Load an edge-list CSV (``src,dst[,weight]``, ``#`` comments ignored).

    With ``weighted`` the optional third column is used (default 1.0 when
    absent); otherwise every edge gets weight 1.0. The first malformed
    line, or negative or non-finite weight, in file order raises
    :class:`DataError` with its line number.
    """
    text = _read_text(path)
    try:  # whole columns decide if the file is good; a bad one is reread line by line
        raw, starts, stops = _tokens(text, (2, 3), fill="1")
        weights = (np.fromiter(map(float, _decode(raw, starts[:, 2], stops[:, 2])), np.float64)
                   if weighted and starts.shape[1] == 3 else np.ones(len(starts)))
        if (starts[:, :2] == stops[:, :2]).any() or not _valid_weights(weights):
            raise ValueError("an empty id or a bad weight")
    except ValueError:
        _raise_first_bad_line(path, text, lambda fields: _edge_problem(fields, weighted))
    nodes, ends = _number(raw, starts[:, :2].ravel(), stops[:, :2].ravel())
    graph = Graph.__new__(Graph)  # the one builder, on ids and weights checked above
    graph._build(dict(zip(nodes, range(len(nodes)))), ends, weights, directed)
    return graph


def load_values(path) -> dict:
    """Load a ``node_id,value`` CSV into an id->value mapping.

    The first malformed line, duplicate node or non-finite value in file
    order raises :class:`DataError` with its line number.
    """
    text = _read_text(path)
    try:  # whole columns decide if the file is good; a bad one is reread line by line
        # every field is decoded, so one split of the buffer does it
        tokens = _tokens(text, (2,))[0].tobytes().decode("utf-8").replace("\n", ",").split(",")[:-1]
        nodes, values = tokens[0::2], list(map(float, tokens[1::2]))
        table = dict(zip(nodes, values))  # a repeated id makes it shorter
        if "" in table or len(table) < len(nodes) or not all(map(math.isfinite, values)):
            raise ValueError("a bad or repeated id, or a bad value")
    except ValueError:
        seen = set()
        _raise_first_bad_line(path, text, lambda fields: _value_problem(fields, seen))
    return table


def load_dataset(graph_path, values_path, weighted=False, directed=False,
                 drop_isolated_nodes=False, name="") -> Dataset:
    """Load a graph and its value file into a consistent :class:`Dataset`.

    Values of nodes the edge list never names, or that ``drop_isolated_nodes``
    removed, are ignored.
    """
    graph = load_graph(graph_path, weighted=weighted, directed=directed)
    if drop_isolated_nodes:
        graph = drop_isolated(graph)
    values = load_values(values_path)
    if not values.keys() <= graph._index.keys():
        values = {n: v for n, v in values.items() if n in graph}
    return Dataset(graph=graph, values=values, name=name or Path(graph_path).stem)


def drop_isolated(graph: Graph) -> Graph:
    """Drop nodes whose adjacency vector would be all-zero.

    For directed graphs these are nodes with no out-edges; for undirected
    graphs, nodes with no incident edges; an edge of weight 0 or a self-loop
    keeps its node. Edges touching dropped nodes are removed as well.
    """
    keep = np.bincount(graph._arcs()[0], minlength=graph.num_nodes) > 0
    kept = keep[graph._ends].reshape(-1, 2).all(axis=1)  # the input edges whose two ends stay
    pruned = Graph.__new__(Graph)  # kept nodes are renumbered in order, not hashed again
    pruned._build(dict(zip(itertools.compress(graph._index, keep.tolist()), itertools.count())),
                  (np.cumsum(keep) - 1)[graph._ends[np.repeat(kept, 2)]], graph._weights[kept],
                  graph.directed)
    return pruned


def build_adjacency_vectors(graph: Graph, sampled: Sequence[NodeId],
                            referencing: Sequence[NodeId]) -> np.ndarray:
    """Adjacency vectors of ``sampled`` nodes against an ordered referencing set.

    Entry ``[n, m]`` is the weight of the edge from ``sampled[n]`` toward
    ``referencing[m]`` (out-edge for directed graphs) and 0.0 when the two
    nodes are not connected. An edge given more than once, in either
    direction on undirected graphs, takes the weight it was given last.
    """
    return _Nonzeros.of_graph(graph, sampled, referencing).dense()


def _node_index(graph: Graph, role: str, nodes: Sequence[NodeId]) -> np.ndarray:
    try:
        return np.fromiter(map(graph._index.__getitem__, nodes), np.int64, len(nodes))
    except KeyError as exc:
        raise DataError(f"{role} node {exc.args[0]!r} is not in the graph") from None


class _Nonzeros:
    """The nonzero entries of an (n, m) matrix, the one adjacency form inside the library: their
    row-major indices ``flat``, in order, and their ``values``, with no 0.0 or -0.0. ``tol`` is
    16 (m + 2) eps max||a||^2, twice the most a Gram value can differ from the difference-based
    value in any summation order, and never 0 then, even where tiny norms underflow; it is 0 on
    integer entries with 4 m max|a|^2 <= 2^53, whose every Gram value, norm and distance is exact.
    """

    def __init__(self, shape: tuple[int, int], flat: np.ndarray, values: np.ndarray):
        self.shape, self.flat, self.values = shape, flat, values

    @classmethod
    def of(cls, vectors) -> _Nonzeros:
        """``vectors`` itself, or the record of a 2-d array, read in one ``!= 0`` pass."""
        if isinstance(vectors, _Nonzeros):
            return vectors
        array = np.asarray(vectors, dtype=np.float64)
        if array.ndim != 2:
            raise ArgumentError(f"vectors must be a 2-d array, got shape {array.shape}")
        flat = np.flatnonzero(array != 0.0)
        return cls(array.shape, flat, array[np.divmod(flat, array.shape[1])])

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return np.bincount(self.flat // max(self.shape[1], 1), self.values * self.values,
                           minlength=self.shape[0])

    @functools.cached_property
    def tol(self) -> float:
        values, m = self.values, self.shape[1]
        if (np.array_equal(values, np.trunc(values))
                and 4.0 * m * float(np.abs(values).max(initial=0.0)) ** 2 <= 2.0**53):
            return 0.0
        return max(16.0 * (m + 2) * 2.0**-52 * float(self.norms.max()), 5e-324)

    @classmethod
    def of_graph(cls, graph: Graph, sampled: Sequence[NodeId],
                 referencing: Sequence[NodeId]) -> _Nonzeros:
        """The record of :func:`build_adjacency_vectors`' matrix, from one sort of the arcs."""
        if len(referencing) == 0:
            raise ArgumentError("referencing set must be non-empty")
        if len(set(referencing)) != len(referencing):
            raise ArgumentError("referencing nodes must be unique")
        rows, columns = _node_index(graph, "sampled", sampled), _node_index(graph, "referencing",
                                                                             referencing)
        # row and column position of each graph node; -1 outside the two sets
        position = np.full((2, graph.num_nodes), -1, dtype=np.int64)
        position[0, rows], position[1, columns] = np.arange(len(rows)), np.arange(len(columns))
        heads, tails, weights = graph._arcs()
        heads, tails = position[0, heads], position[1, tails]
        arcs = np.flatnonzero((heads >= 0) & (tails >= 0))[::-1]
        # np.unique keeps the first of each key in reverse arc order: the last edge wins,
        # and one given 0.0 or -0.0 last leaves no entry
        keys, last = np.unique(heads[arcs] * len(referencing) + tails[arcs], return_index=True)
        values = weights[arcs[last]]
        record = cls((len(sampled), len(referencing)), keys[values != 0.0], values[values != 0.0])
        # a node sampled more than once had its edges written to one of its rows
        rows = position[0, rows]
        return record if np.array_equal(rows, np.arange(len(sampled))) else record.take(rows)

    def take(self, rows) -> _Nonzeros:
        """The record of the matrix's ``rows``, indices or a slice; one of step 1 is one run."""
        (n, m), flat, values = self.shape, self.flat, self.values
        if isinstance(rows, slice) and rows.step in (None, 1):
            start, stop, _ = rows.indices(n)
            lo, hi = np.searchsorted(flat, (start * m, max(start, stop) * m))
            return _Nonzeros((max(stop - start, 0), m), flat[lo:hi] - start * m, values[lo:hi])
        rows = np.arange(n)[rows]  # each row's entries, moved to its place in the result
        lo, hi = np.searchsorted(flat, (rows * m, rows * m + m))
        at = np.repeat(hi - np.cumsum(hi - lo), hi - lo) + np.arange(np.sum(hi - lo))
        shift = np.repeat((np.arange(rows.size) - rows) * m, hi - lo)
        return _Nonzeros((rows.size, m), flat[at] + shift, values[at])

    def dense(self, rows=None) -> np.ndarray:
        """The matrix, or its ``rows`` (see :meth:`take`), made dense."""
        record = self if rows is None else self.take(rows)
        vectors = np.zeros(record.shape)
        np.put(vectors, record.flat, record.values)
        return vectors


# Rows per Gram block of the pairwise scan; its memory is O(_SCAN_CHUNK * n).
_SCAN_CHUNK = 256
# Cost of one co-occurrence product in BLAS multiply-adds: 13-26 ns against
# about 48 ps with OpenBLAS 0.3.31 on one thread of a 2-vCPU Xeon, and the
# scan time stayed within 10% of its best for ratios 200-500. A column with
# d nonzeros adds about d^2/2 products by co-occurrence and an n-row matrix
# about n^2 m/2 multiply-adds through BLAS, so the scan takes co-occurrence
# while _SCAN_COST * sum(d^2) <= n^2 m.
_SCAN_COST = 300


def _scan_input(vectors) -> _Nonzeros:
    """The record a pair scan reads (see :meth:`_Nonzeros.of`): two rows or more, each of squared
    norm at most an eighth of float64's largest, so that every (|a| + |b|)^2 is finite."""
    vectors = _Nonzeros.of(vectors)
    if vectors.shape[0] < 2:
        raise DegenerateInputError("pairwise statistics need at least two vectors")
    with np.errstate(over="ignore"):
        largest = float(vectors.norms.max(initial=0.0))
    if not largest <= np.finfo(np.float64).max / 8.0:
        raise NumericError("edge weights too large: a squared distance would overflow float64")
    return vectors


def _pair_d_sq(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The definitional squared distances of the rows of ``first`` and ``second``, broadcast."""
    diff = second - first
    return np.einsum("ij,ij->i", diff, diff)


class _CoOccurrence:
    """-2 a.b for every pair of rows, from products of nonzeros sharing a column.

    Entries are kept in row order; ``partner[i] + done[i]`` is the
    (column, row) position of the first entry below entry i in its column
    and ``below[i]`` the number of such entries, so entry i pairs with the
    ``below[i]`` entries from there on, and ``done[i]`` counts the pairs of
    the entries before it.
    """

    def __init__(self, nonzeros: _Nonzeros):
        m = nonzeros.shape[1]
        self.rows, cols = np.divmod(nonzeros.flat, m)
        self.values = nonzeros.values
        by_column = np.argsort(cols, kind="stable")
        position = np.empty_like(by_column)
        position[by_column] = np.arange(by_column.size)
        self.below = np.cumsum(np.bincount(cols, minlength=m))[cols] - position - 1
        self.done = np.concatenate(([0], np.cumsum(self.below)))
        self.partner = position + 1 - self.done[:-1]
        self.column_rows, self.column_values = self.rows[by_column], self.values[by_column]

    def block(self, start: int, stop: int, n: int) -> np.ndarray:
        """Rows [start, stop) against rows [start, n), above the diagonal only.

        Products are summed with ``np.bincount`` in runs whose index and
        weight arrays are no longer than the block itself.
        """
        width = n - start
        size = (stop - start) * width
        total = None
        lo, hi = np.searchsorted(self.rows, (start, stop))
        while self.done[lo] < self.done[hi]:
            end = min(hi, int(np.searchsorted(self.done, self.done[lo] + size, side="right")) - 1)
            below = self.below[lo:end]
            partner = (np.repeat(self.partner[lo:end], below)
                       + np.arange(self.done[lo], self.done[end]))
            index = np.repeat((self.rows[lo:end] - start) * width - start, below)
            weight = np.repeat(-2.0 * self.values[lo:end], below)
            part = np.bincount(index + self.column_rows[partner],
                               weights=weight * self.column_values[partner], minlength=size)
            if total is None:
                total = part
            else:
                total += part
            lo = end
        return (np.zeros(size) if total is None else total).reshape(stop - start, width)


def _gram_blocks(nonzeros: _Nonzeros):
    """Squared distances of all unordered pairs of rows, one Gram block at a time.

    Yields ``(start, d_sq)`` per block of ``_SCAN_CHUNK`` rows from
    ``start``: ``d_sq[i, j]`` is ||a||^2 + ||b||^2 - 2 a.b of rows ``start + i``
    and ``start + j`` for j > i and NaN for j <= i, within ``nonzeros.tol``
    of its definitional value, in O(_SCAN_CHUNK * n) memory. One product
    serves the whole matrix, chosen from its column nonzero counts d:
    co-occurrence, adding the products of nonzeros that share a column,
    when ``_SCAN_COST * sum(d^2) <= n^2 m`` (the record then holds at most
    n m / sqrt(_SCAN_COST) nonzeros), else BLAS on the matrix made dense.
    """
    n, m = nonzeros.shape
    counts = np.bincount(nonzeros.flat % max(m, 1), minlength=m)
    co_occurrence = _CoOccurrence(nonzeros) if _SCAN_COST * (counts @ counts) <= n * n * m else None
    vectors = None if co_occurrence else nonzeros.dense()
    norms = nonzeros.norms
    on_or_below = np.tri(min(_SCAN_CHUNK, n - 1), dtype=bool)
    for start in range(0, n - 1, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, n - 1)
        rows = stop - start
        d_sq = (co_occurrence.block(start, stop, n) if co_occurrence
                else (-2.0 * vectors[start:stop]) @ vectors[start:].T)
        d_sq += norms[start:stop, None]
        d_sq += norms[start:]
        d_sq[:, :rows][on_or_below[:rows, :rows]] = np.nan
        yield start, d_sq


def _pair_rows(vectors):
    """``(i, d_sq)`` per row i but the last: its :func:`_pair_d_sq` to later rows, read from exact
    Gram blocks (``tol`` 0) and otherwise, with no Gram block built, computed from differences.

    Those need dense rows, so a record read from the arcs is made dense here: distances that
    are not exact integers are mostly distinct, and the histogram or scatter holding them
    outweighs the matrix.
    """
    nonzeros = _scan_input(vectors)
    if nonzeros.tol == 0.0:
        for start, d_sq in _gram_blocks(nonzeros):
            yield from ((i, row[i - start + 1:]) for i, row in enumerate(d_sq, start))
    else:
        rows = nonzeros.dense()
        yield from ((i, _pair_d_sq(rows[i], rows[i + 1:])) for i in range(len(rows) - 1))


def pairwise_stats(vectors) -> PairwiseStats:
    """Largest and smallest nonzero squared Euclidean distance over all unordered pairs.

    Both are read from :func:`_gram_blocks`. Unless a block is exact (``tol``
    0), its pairs within ``tol`` of zero, or within ``2 tol`` of its maximum or
    of its smallest value above ``tol``, are recomputed from their differences,
    so both equal those of the definitional pair-by-pair scan.
    ``d_sq_min_nonzero`` is ``None`` when every pair coincides.
    """
    nonzeros = _scan_input(vectors)
    tol = nonzeros.tol
    d_max, d_min = 0.0, math.inf
    for start, d_sq in _gram_blocks(nonzeros):
        # pairs on or below the diagonal read NaN, which the reductions and
        # comparisons below skip; so do near-zero pairs once they are marked
        high = np.fmax.reduce(d_sq, axis=None)
        recompute = d_sq <= tol
        d_sq[recompute] = np.nan
        low = np.fmin.reduce(d_sq, axis=None)
        if tol == 0.0:  # every Gram value is its pair's definitional distance
            d_max, d_min = max(d_max, float(high)), float(np.fmin(d_min, low))
            continue
        recompute |= d_sq >= high - 2.0 * tol
        recompute |= d_sq <= low + 2.0 * tol
        first, second = np.divmod(np.flatnonzero(recompute), d_sq.shape[1])
        # each run of recomputed differences takes no more memory than the block
        batch = max(_SCAN_CHUNK, d_sq.size // max(nonzeros.shape[1], 1))
        for at in range(0, first.size, batch):
            exact = _pair_d_sq(nonzeros.dense(first[at:at + batch] + start),
                               nonzeros.dense(second[at:at + batch] + start))
            d_max = max(d_max, float(exact.max()))
            d_min = min(d_min, float(exact.min(where=exact > 0.0, initial=math.inf)))
    n = nonzeros.shape[0]
    return PairwiseStats(d_sq_max=d_max, d_sq_min_nonzero=None if d_min == math.inf else d_min,
                         n_pairs=n * (n - 1) // 2)


def pairwise_histogram(vectors) -> tuple[tuple[float, int], ...]:
    """Distinct squared distances over all unordered pairs, each exact, with their pair counts,
    counted per ``_SCAN_CHUNK`` rows and merged."""
    blocks = itertools.groupby(_pair_rows(vectors), lambda row: row[0] // _SCAN_CHUNK)
    parts = [np.unique(np.concatenate([d_sq for _, d_sq in rows]), return_counts=True)
             for _, rows in blocks]
    unique, inverse = np.unique(np.concatenate([part[0] for part in parts]), return_inverse=True)
    counts = np.bincount(inverse, np.concatenate([part[1] for part in parts])).astype(np.int64)
    return tuple(zip(unique.tolist(), counts.tolist()))


def apply_normalization(policy: str, train_values, other_values=()):
    """``(scale, train, other)``: the values under a named policy, divided by ``scale``.

    "none" keeps them (scale 1.0); "max-abs" divides all values by the
    largest absolute training value. The scale is reported so predictions
    can be mapped back to original units.
    """
    if policy not in NORMALIZATION_POLICIES:
        raise ArgumentError(f"unknown normalization policy {policy!r}; known: {NORMALIZATION_POLICIES}")
    train = np.asarray(train_values, dtype=np.float64)
    other = np.asarray(other_values, dtype=np.float64)
    if policy == "none":
        return 1.0, train, other
    if train.size == 0:
        raise ArgumentError("no training values to normalize")
    scale = float(np.max(np.abs(train)))
    if scale == 0.0:
        raise DegenerateInputError("all training values are zero; normalization undefined")
    return scale, train / scale, other / scale


def split_sample(node_ids: Sequence[NodeId], fraction: float, seed: int):
    """Seeded random split into (sampled, tested) node lists.

    The sampled size is ``round(fraction * total)``; the two lists are a
    disjoint union of the input and the draw is reproducible per seed. A
    split that samples no node raises :class:`DegenerateInputError`.
    """
    if not (0.0 < fraction <= 1.0):
        raise ArgumentError(f"sample fraction must lie in (0, 1], got {fraction}")
    k = int(round(fraction * len(node_ids)))
    if k == 0:
        raise DegenerateInputError(f"sample fraction {fraction} takes no node of {len(node_ids)}")
    rng = streams.stream(seed, streams.SPLIT)
    order = rng.permutation(len(node_ids))
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
    with _open_out(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _read_json(path, fmt: str, what: str) -> dict:
    """The JSON object in ``path`` tagged ``"format": fmt``; DataError naming the file otherwise."""
    try:
        payload = json.loads(_read_text(path))
    except ValueError as exc:  # JSON syntax errors
        raise DataError(f"{path}: not {what} ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise DataError(f"{path}: not {what}")
    return payload


def _node_set(value):
    """The set of the ids in ``value``, a JSON list of node ids, or None if it is not one."""
    if not isinstance(value, list):
        return None
    try:
        return set(value)
    except TypeError:  # an unhashable item: a JSON array or object, never a node id
        return None


def read_split_manifest(path):
    """Load a split manifest; returns (sampled, tested, seed, fraction).

    A file that is not JSON, lacks a key, holds node lists that are not
    lists of node ids or names no tested node raises :class:`DataError`
    naming it.
    """
    payload = _read_json(path, "skg-split-v1", "a split manifest")
    try:
        sampled, tested, seed, fraction = [payload[key] for key in
                                           ("sampled", "tested", "seed", "fraction")]
    except KeyError as exc:
        raise DataError(f"{path}: split manifest lacks the key {exc}") from None
    if _node_set(sampled) is None or _node_set(tested) is None:
        raise DataError(f"{path}: 'sampled' and 'tested' must be lists of node ids")
    if not tested:
        raise DataError(f"{path}: split manifest names no tested node")
    return sampled, tested, seed, fraction
