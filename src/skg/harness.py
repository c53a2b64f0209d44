"""End-to-end evaluation: seeded pipeline runs, variance sweeps, exports.

A run is: split the nodes, record the nonzeros of the adjacency vectors
against the sampled (referencing) set, normalize values, draw a feature
bank, train on features made from the record in row blocks, and score the
tested nodes by the generalization normalized mean squared error. Sweeps
repeat runs over a variance grid with independent seeds. Every run trains
on one path, the lockstep grid: a seed's variances train in chunks whose
stacked training features stay under a fixed byte budget, with one bank
draw per chunk, scaled to each variance, and one SGD step loop over the
chunk's stacked features. A single run is the grid's one-variance case; a
sweep prepares each seed's split once and scores each variance's model as
the grid yields it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, DegenerateInputError, NumericError, StateError
from .graph_data import (NORMALIZATION_POLICIES, Dataset, Graph, _Nonzeros, _pair_rows,
                         _scan_input, apply_normalization, split_sample, write_csv)
from .model import SkgModel, TrainingTrace, _train_lockstep, training_order
from .rff import _fill_features, feature_matrix, sample_bank, sample_banks
from .variance import SelectionReport, select
from .weights import WeightTrace, noise_up_from_run, probe_weight_traces


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameter bundle for one pipeline run."""

    eta: float = 0.1
    n_features: int = 200
    epochs: int = 3
    sample_fraction: float = 0.4
    closeness: float = 0.1
    refine_noise: bool = False
    first_order_da: bool = False
    normalization: str = "max-abs"

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            # unit-norm features scale a revisited node's residual by (1 - 2*eta)
            raise ArgumentError(f"eta must lie in (0, 1), got {self.eta}")
        if self.n_features < 1 or self.epochs < 1:
            raise ArgumentError("n_features and epochs must be positive")
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ArgumentError(f"sample_fraction must lie in (0, 1], got {self.sample_fraction}")
        if not (0.0 < self.closeness < 0.5):
            raise ArgumentError(f"closeness must lie in (0, 0.5), got {self.closeness}")
        if self.normalization not in NORMALIZATION_POLICIES:
            raise ArgumentError(f"unknown normalization policy {self.normalization!r}; "
                                f"known: {NORMALIZATION_POLICIES}")


@dataclass(frozen=True)
class SweepGrid:
    """Strictly increasing variance grid plus the run configuration."""

    sigma_sq_values: tuple
    config: RunConfig
    marked_sigma_sq: float | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.sigma_sq_values)
        if len(values) == 0:
            raise ArgumentError("grid must contain at least one variance")
        if not all(v > 0 and math.isfinite(v) for v in values):
            raise ArgumentError("grid variances must be positive and finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ArgumentError("grid variances must be strictly increasing")
        object.__setattr__(self, "sigma_sq_values", values)


@dataclass(frozen=True)
class GnmseResult:
    """Mean/std of the error metric over the repeats at one variance."""

    sigma_sq: float
    gnmse_mean: float
    gnmse_std: float
    repeats: int
    seeds: tuple


@dataclass(frozen=True)
class RunResult:
    """Artifacts of one pipeline run."""

    gnmse: float
    sampled: tuple
    tested: tuple
    value_scale: float
    predictions: np.ndarray
    test_values: np.ndarray
    model: SkgModel
    training_trace: TrainingTrace
    trace: WeightTrace | None = None
    probe_node: object = None


def gnmse(y_true, y_pred) -> float:
    """Squared residual norm over squared signal norm."""
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise ArgumentError(f"value vectors must be 1-d and equally long, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ArgumentError("value vectors are empty")
    if not t.any():
        raise DegenerateInputError("true values are all zero; the metric is undefined")
    with np.errstate(over="ignore"):  # an overflowed or underflowed square is redone below
        denom = float(t @ t)
        diff = t - p
        score = float(diff @ diff) / denom if denom else math.inf
        if not (math.isfinite(denom) and math.isfinite(score)):
            # the same ratio over values divided by max|t|; finite scores keep their bits
            top = np.max(np.abs(t))
            t, diff = t / top, t / top - p / top
            score = float(diff @ diff) / float(t @ t)
    if not math.isfinite(score):
        raise NumericError("the error metric is not finite: predictions overflow or are not finite")
    return score


@dataclass(frozen=True)
class PreparedSplit:
    """Everything a run needs before the bank is drawn, for one split.

    The sampled and the tested nodes' adjacency vectors against the sampled
    (referencing) set are read from ``graph`` into nonzero records on first
    use, never as dense matrices. ``train_values`` and ``test_values`` are
    normalized by ``value_scale`` and read-only: one split serves every grid
    variance of a seed.
    """

    sampled: tuple
    tested: tuple
    train_values: np.ndarray
    test_values: np.ndarray
    value_scale: float
    graph: Graph

    @functools.cached_property
    def _nonzeros(self) -> _Nonzeros:
        return _Nonzeros.of_graph(self.graph, self.sampled, self.sampled)

    @functools.cached_property
    def _test_nonzeros(self) -> _Nonzeros:
        return _Nonzeros.of_graph(self.graph, self.tested, self.sampled)


def prepare(dataset: Dataset, config: RunConfig, seed: int) -> PreparedSplit:
    """Split the nodes by the seed and normalize the values; records are built on first read."""
    sampled, tested = map(tuple, split_sample(dataset.node_ids, config.sample_fraction, seed))
    scale, train_values, test_values = apply_normalization(
        config.normalization, dataset.value_array(sampled), dataset.value_array(tested)
    )
    for array in (train_values, test_values):
        array.flags.writeable = False
    return PreparedSplit(sampled=sampled, tested=tested, train_values=train_values,
                         test_values=test_values, value_scale=scale, graph=dataset.graph)


def resolve_sigma_sq(dataset: Dataset, config: RunConfig, seed: int) -> SelectionReport:
    """Variance selection on the seed's split of ``dataset``; see :func:`select_prepared`."""
    return select_prepared(prepare(dataset, config, seed), config, seed)


def run_once(dataset: Dataset, config: RunConfig, sigma_sq: float, seed: int) -> RunResult:
    """One full train-and-score pass, deterministic per seed; see :func:`fit_prepared`."""
    return fit_prepared(prepare(dataset, config, seed), config, sigma_sq, seed)


def select_prepared(prepared: PreparedSplit, config: RunConfig, seed: int) -> SelectionReport:
    """Closed-form variance selection on the prepared split's sampled vectors.

    With ``config.refine_noise`` one run at the closed-form variance
    re-measures the noise ceiling: the largest |minimum weight| over the
    tested nodes, or over the sampled ones when none is tested.
    """
    report = select(prepared._nonzeros, config.eta, config.n_features,
                    closeness=config.closeness, first_order_da=config.first_order_da)
    if not config.refine_noise:
        return report
    # the weights depend on the run's bank and order only, not on its targets,
    # so the forward pass is not needed
    bank = sample_bank(report.sigma_sq_ed, config.n_features, len(prepared.sampled), seed)
    features = feature_matrix(bank, prepared._nonzeros)
    probes = feature_matrix(bank, prepared._test_nonzeros) if prepared.tested else features
    order = training_order(len(prepared.sampled), config.epochs, seed)
    return report.refined(noise_up_from_run(features, order, probes, config.eta))


def fit_prepared(prepared: PreparedSplit, config: RunConfig, sigma_sq: float, seed: int, *,
                 probe_node=None) -> RunResult:
    """Train on the prepared split at one variance and score its tested nodes.

    The run is the one-variance case of the sweep's lockstep grid. Naming
    a tested ``probe_node`` keeps that node's weight trace.
    """
    tested = prepared.tested
    # with no tested node the grid raises DegenerateInputError before this check
    if probe_node is not None and tested and probe_node not in tested:
        raise DataError(f"probe node {probe_node!r} is not among the tested nodes")
    (skg, training_trace, features), = _fit_grid(prepared, config, (sigma_sq,), seed)
    # the probe pass reads them in visit order; freed before the tested ones: lower peak
    ordered = None if probe_node is None else features[training_trace.order]
    del features
    predictions = skg.predict_batch(prepared._test_nonzeros)

    trace = None
    if probe_node is not None:
        probe = feature_matrix(skg.bank, prepared._test_nonzeros.take([tested.index(probe_node)]))
        trace = probe_weight_traces(ordered, probe, config.eta)[0]

    return RunResult(
        gnmse=gnmse(prepared.test_values, predictions), sampled=prepared.sampled, tested=tested,
        value_scale=prepared.value_scale, predictions=predictions,
        test_values=prepared.test_values, model=skg, training_trace=training_trace,
        trace=trace, probe_node=probe_node,
    )


def default_grid(report: SelectionReport, config: RunConfig, points: int = 25) -> SweepGrid:
    """Log-spaced grid spanning a tenth of the chaos/extending boundary to
    ten times the disturbing/averaging one, with the selected variance
    inserted and marked.

    The selected variance replaces the grid point nearest to it when that
    point lies within a relative 1e-9 of it, so the marked value is always
    exactly one of the grid's values.
    """
    if points < 2:
        raise ArgumentError(f"grid needs at least 2 points, got {points}")
    lo, hi = report.sigma_sq_ce / 10.0, report.sigma_sq_da * 10.0
    if not lo < hi:
        raise ArgumentError(f"default grid is empty: sigma_sq_ce/10 = {lo} is not below "
                            f"10*sigma_sq_da = {hi}; pass a manual grid")
    values = np.geomspace(lo, hi, points)
    ed = report.sigma_sq_ed
    nearest = int(np.argmin(np.abs(values - ed)))
    if np.isclose(values[nearest], ed, rtol=1e-9, atol=0.0):
        values[nearest] = ed
    else:
        values = np.sort(np.append(values, ed))
    return SweepGrid(sigma_sq_values=tuple(values), config=config, marked_sigma_sq=ed)


# stacked training features of one chunk of grid variances stay under this size
_GRID_BYTES = 4 << 20


def _fit_grid(prepared: PreparedSplit, config: RunConfig, sigma_sq_values, seed: int):
    """Train the run at each variance; yields its model, training trace and training features
    (n, D), one variance at a time. The variances share the seed's bank draw and visit order,
    so one step loop trains them together over features stacked (n, S, D), each record block
    made dense once per chunk of variances; chunks keep the stack under ``_GRID_BYTES``. No run
    depends on the others or the chunks.
    """
    if not prepared.tested:
        raise DegenerateInputError("no tested nodes; lower the sample fraction")
    (n, m), width = prepared._nonzeros.shape, 2 * config.n_features
    per_chunk = max(1, _GRID_BYTES // (n * width * 8))
    for start in range(0, len(sigma_sq_values), per_chunk):
        banks = sample_banks(sigma_sq_values[start:start + per_chunk], config.n_features, m, seed)
        features = _fill_features(banks, prepared._nonzeros, np.empty((n, len(banks), width)))
        state = np.zeros((len(banks), width), dtype=np.float64)
        traces = _train_lockstep(features, prepared.train_values, config.epochs, seed, state,
                                 config.eta)
        for s, (bank, trace) in enumerate(zip(banks, traces)):
            yield SkgModel(bank=bank, eta=config.eta, theta=state[s]), trace, features[:, s]


def _sweep_seed(args) -> list[float]:
    dataset, config, sigma_sq_values, seed, split_seed = args
    prepared = prepare(dataset, config, split_seed)
    return [gnmse(prepared.test_values, skg.predict_batch(prepared._test_nonzeros))
            for skg, _, _ in _fit_grid(prepared, config, sigma_sq_values, seed)]


def sweep(dataset: Dataset, grid: SweepGrid, repeats: int = 50, base_seed: int = 0, *,
          jobs: int = 1, fixed_split: bool = False) -> list[GnmseResult]:
    """Repeated seeded runs over the variance grid.

    Each repeat uses a fresh split, bank and order (seed ``base_seed + r``)
    unless ``fixed_split`` pins the split of ``base_seed`` for all runs,
    isolating bank/order randomness. The task that runs a seed prepares its
    split once (a pinned split: ``base_seed``'s, in every task), and all
    grid variances of the seed train together; every cell equals
    :func:`run_once` at the same variance and seed. Seeds are independent;
    ``jobs`` > 1 runs them in up to ``jobs`` processes, never more than there
    are seeds, and aggregation does not depend on completion order.
    """
    if jobs < 1:
        raise ArgumentError(f"jobs must be at least 1, got {jobs}")
    if repeats < 1:
        raise ArgumentError(f"repeats must be at least 1, got {repeats}")
    seeds = [int(base_seed) + r for r in range(repeats)]
    tasks = [(dataset, grid.config, grid.sigma_sq_values, seed,
              seeds[0] if fixed_split else seed) for seed in seeds]
    workers = min(jobs, len(tasks))  # a pool starts all its workers at once: no idle ones
    if workers > 1:
        import concurrent.futures  # only parallel sweeps pay for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_sweep_seed, tasks,
                                     chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        per_seed = [_sweep_seed(task) for task in tasks]
    scores = np.array(per_seed, dtype=np.float64).T
    results = []
    for i, sigma_sq in enumerate(grid.sigma_sq_values):
        row = scores[i]
        std = float(row.std(ddof=1)) if row.size > 1 else 0.0
        results.append(
            GnmseResult(
                sigma_sq=float(sigma_sq), gnmse_mean=float(row.mean()), gnmse_std=std,
                repeats=row.size, seeds=tuple(seeds),
            )
        )
    return results


def write_sweep_csv(path, results, marked_sigma_sq=None) -> None:
    """Write sweep results as ``sigma_sq,gnmse_mean,gnmse_std,repeats,is_theoretical_ed``.

    The row whose variance equals ``marked_sigma_sq`` exactly is marked.
    """
    write_csv(path, ("sigma_sq", "gnmse_mean", "gnmse_std", "repeats", "is_theoretical_ed"),
              ((res.sigma_sq, res.gnmse_mean, res.gnmse_std, res.repeats,
                "true" if res.sigma_sq == marked_sigma_sq else "false") for res in results))


def export_scatter(vectors, values) -> np.ndarray:
    """Rows (squared distance, |value difference|) over all pairs of rows, row by row.

    ``vectors`` (a nonzero record, or a 2-d array read as one) is read as the histogram
    reads it: exact (0/1, say) entries from the scan's Gram blocks, others from differences
    of the matrix made dense once. ``values`` holds one value per row.
    """
    nonzeros = _scan_input(vectors)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (nonzeros.shape[0],):
        raise ArgumentError(f"values shape {values.shape} does not match "
                            f"{nonzeros.shape[0]} vectors")
    return np.concatenate([np.column_stack([d_sq, np.abs(values[i + 1:] - values[i])])
                           for i, d_sq in _pair_rows(nonzeros)])


def write_scatter_csv(path, rows: np.ndarray) -> None:
    """Write scatter rows as ``d_sq,abs_dy``."""
    write_csv(path, ("d_sq", "abs_dy"), rows)


def export_bf_trace(result: RunResult) -> list[tuple]:
    """Rows (i, B, F, alpha, alpha_flag) for the retained probe trace."""
    if result.trace is None:
        raise StateError("run was executed without trace retention")
    trace = result.trace
    valid = trace.alpha_valid.tolist()
    return list(zip(range(1, len(valid) + 1), trace.similarities.tolist(), trace.weights.tolist(),
                    [a if ok else None for a, ok in zip(trace.alpha.tolist(), valid)], valid))


def write_bf_trace_csv(path, rows) -> None:
    """Write probe-trace rows as ``i,B,F,alpha,alpha_flag``."""
    write_csv(path, ("i", "B", "F", "alpha", "alpha_flag"),
              ((i, b, f, alpha, int(valid)) for i, b, f, alpha, valid in rows))
