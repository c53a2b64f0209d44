"""Output checks of the skg benchmark.

Each check takes a CLI output (parsed JSON or a CSV path) and the values
the benchmark expects, and returns a list of problems; an empty list means
the output passed. Reference values are computed here with plain numpy,
independently of the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Closed-form relations and recomputed scans must agree to rounding; a
# reordered but exact reimplementation stays well inside this.
REL_EXACT = 1e-12
# predict reports gnmse in original units, train in normalized units: the
# two differ by the rounding of the value scale.
REL_SCALED = 1e-9


def digest(text: str, paths=()) -> str:
    """SHA-256 over an op's standard output and the bytes of its output files."""
    h = hashlib.sha256(text.encode("utf-8"))
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def data_rows(path) -> int:
    """Number of lines after the header line."""
    with open(path, "rb") as handle:
        return max(sum(1 for _ in handle) - 1, 0)


def check_select_report(report: dict, *, eta: float, required, refined: bool) -> list[str]:
    """Schema keys, the closed-form relation for sigma_sq_ed, and the noise source."""
    missing = [key for key in required if key not in report]
    if missing:
        return [f"select report lacks keys {missing}"]
    problems = []
    d_sq_max = report["d_sq_max"]["value"]
    noise = report["noise_up"]["value"]
    sigma_ed = report["sigma_sq_ed"]["value"]
    if not 0.0 < noise < 2.0 * eta:
        problems.append(f"noise_up {noise!r} outside (0, 2*eta={2 * eta})")
    else:
        expected = -d_sq_max / (2.0 * math.log(noise / (2.0 * eta)))
        if not math.isclose(sigma_ed, expected, rel_tol=REL_EXACT):
            problems.append(f"sigma_sq_ed {sigma_ed!r} != -d_sq_max/(2 ln(noise_up/(2 eta))) "
                            f"= {expected!r}")
    source = report["noise_up"].get("source")
    wanted = "refined" if refined else "theoretical"
    if source != wanted:
        problems.append(f"noise_up source {source!r}, expected {wanted!r}")
    return problems


def adjacency_vectors(edges_path, nodes, weighted: bool, directed: bool) -> np.ndarray:
    """Adjacency vectors of ``nodes`` against themselves, read from the edge CSV."""
    column = {node: i for i, node in enumerate(nodes)}
    vectors = np.zeros((len(nodes), len(nodes)))
    with open(edges_path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.strip().split(",")
            src, dst = column.get(fields[0]), column.get(fields[1])
            if src is None or dst is None:
                continue
            weight = float(fields[2]) if weighted and len(fields) == 3 else 1.0
            vectors[src, dst] = weight
            if not directed:
                vectors[dst, src] = weight
    return vectors


def max_pair_distance(vectors: np.ndarray) -> float:
    """Largest squared Euclidean distance over unordered pairs of rows.

    Integer-valued rows go through the Gram matrix, which is exact in
    float64 for them; real-valued rows use the difference formula.
    """
    if np.array_equal(vectors, np.round(vectors)):
        sq = np.einsum("ij,ij->i", vectors, vectors)
        d_sq = sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T)
        return float(d_sq.max())
    best = 0.0
    for i in range(vectors.shape[0] - 1):
        diff = vectors[i + 1:] - vectors[i]
        best = max(best, float(np.einsum("ij,ij->i", diff, diff).max()))
    return best


def check_d_sq_max(report: dict, expected: float) -> list[str]:
    got = report["d_sq_max"]["value"]
    if not math.isclose(got, expected, rel_tol=REL_EXACT):
        return [f"d_sq_max {got!r} != recomputed {expected!r}"]
    return []


def check_gnmse_pair(train_gnmse: float, predict_gnmse: float) -> list[str]:
    if not math.isclose(train_gnmse, predict_gnmse, rel_tol=REL_SCALED):
        return [f"predict gnmse {predict_gnmse!r} != train gnmse {train_gnmse!r}"]
    return []


def check_row_count(path, expected: int, label: str) -> list[str]:
    got = data_rows(path)
    if got != expected:
        return [f"{label} has {got} rows, expected {expected}"]
    return []


def marked_row(path) -> tuple[dict | None, list[str]]:
    """The single row flagged as the selected variance, or problems."""
    rows = csv_rows(path)
    marked = [row for row in rows if row.get("is_theoretical_ed") == "true"]
    if len(marked) != 1:
        return None, [f"sweep CSV has {len(marked)} marked rows, expected 1"]
    return marked[0], []


def check_sweep(path, sigma_sq_ed: float, grid_points: int) -> list[str]:
    """Row count, one marked row, and the marked variance equal to select's."""
    problems = check_row_count(path, grid_points, "sweep CSV")
    row, marked_problems = marked_row(path)
    problems += marked_problems
    if row is not None and not math.isclose(float(row["sigma_sq"]), sigma_sq_ed,
                                            rel_tol=REL_EXACT):
        problems.append(f"marked sigma_sq {row['sigma_sq']} != selected {sigma_sq_ed!r}")
    return problems


def check_sweep_cells(row: dict, cells) -> list[str]:
    """The marked row's mean and spread equal those of independently run cells."""
    cells = np.asarray(cells, dtype=np.float64)
    mean, std = float(cells.mean()), float(cells.std(ddof=1))
    problems = []
    if int(row["repeats"]) != cells.size:
        problems.append(f"marked row repeats {row['repeats']} != {cells.size}")
    if not math.isclose(float(row["gnmse_mean"]), mean, rel_tol=REL_EXACT):
        problems.append(f"marked gnmse_mean {row['gnmse_mean']} != run_once mean {mean!r}")
    if not math.isclose(float(row["gnmse_std"]), std, rel_tol=REL_EXACT):
        problems.append(f"marked gnmse_std {row['gnmse_std']} != run_once std {std!r}")
    return problems
