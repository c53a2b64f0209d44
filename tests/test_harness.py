"""Pipeline runs, sweeps, synthetic data, and diagnostic exports."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skg
from skg import harness
from skg.errors import (ArgumentError, DataError, DegenerateInputError, NumericError, SkgError,
                        StateError)
from skg.graph_data import apply_normalization, build_adjacency_vectors
from skg.harness import (RunConfig, SweepGrid, default_grid, export_bf_trace,
                         export_scatter, fit_prepared, gnmse, prepare, run_once,
                         select_prepared, sweep, write_bf_trace_csv, write_sweep_csv)
from skg.synthetic import planted_community_dataset

from conftest import require_data
from test_graph_data import _loop_histogram, _scan_vectors


class TestGnmse:
    def test_perfect_prediction(self):
        assert gnmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_prediction_scores_one(self):
        assert gnmse([1.0, -2.0], [0.0, 0.0]) == 1.0

    def test_hand_value(self):
        assert gnmse([1.0, 1.0], [1.0, 0.0]) == 0.5

    def test_errors(self):
        with pytest.raises(DegenerateInputError):
            gnmse([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ArgumentError):
            gnmse([1.0], [1.0, 2.0])
        with pytest.raises(ArgumentError):
            gnmse([], [])

    def test_overflowing_squares_are_rescaled(self):
        # t @ t and diff @ diff overflow: the score is that of the values over max|t|
        t, p = np.array([1e200, -1e200, 1e200]), np.array([5e199, -1e200, 0.0])
        assert gnmse(t, p) == gnmse(t / 1e200, p / 1e200) == pytest.approx(1.25 / 3, rel=1e-15)
        # a signal square overflowing alone no longer reads 0.0
        assert gnmse([1e154, 1e154], [0.0, 1e154]) == pytest.approx(0.5, rel=1e-15)

    def test_underflowing_squares_are_rescaled(self):
        # t @ t rounds to 0.0 although no value is zero: the values are not all zero
        t = np.array([1e-170, -1e-170, 3e-170])
        assert float(t @ t) == 0.0
        assert gnmse(t, np.zeros(3)) == 1.0
        assert gnmse(t, t / 2) == gnmse(t * 1e170, t * 1e170 / 2) == pytest.approx(0.25)
        with pytest.raises(DegenerateInputError):
            gnmse([0.0, -0.0], [1e-170, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    def test_non_finite_score_raises(self, bad):
        with pytest.raises(NumericError):
            gnmse([1e-10, 1.0], [bad, 1.0])

    @given(st.lists(st.tuples(st.floats(-1e150, 1e150, allow_nan=False),
                              st.floats(-1e150, 1e150, allow_nan=False)),
                    min_size=1, max_size=12))
    def test_finite_scores_are_the_plain_ratio(self, pairs):
        # the rescaled form is taken only where the plain one is not finite
        t, p = np.array(pairs).T.copy()
        with np.errstate(over="ignore"):
            denom = float(t @ t)
            plain = float((t - p) @ (t - p)) / denom if denom else math.nan
        if 0.0 < denom < math.inf and math.isfinite(plain):
            assert gnmse(t, p) == plain

    @given(st.lists(st.tuples(st.floats(-10, 10, allow_nan=False),
                              st.floats(-10, 10, allow_nan=False)),
                    min_size=2, max_size=12))
    # the true score, about 4.4e315, is beyond float64: both orders must raise
    @example(pairs=[(0.0, 0.0), (1.5034479658620966e-158, 1.0)])
    def test_permutation_invariant(self, pairs):
        y_true = np.array([p[0] for p in pairs])
        y_pred = np.array([p[1] for p in pairs])
        if float(y_true @ y_true) == 0.0:
            return
        perm = np.random.default_rng(0).permutation(len(pairs))
        try:
            base = gnmse(y_true, y_pred)
        except NumericError:
            with pytest.raises(NumericError):
                gnmse(y_true[perm], y_pred[perm])
            return
        assert gnmse(y_true[perm], y_pred[perm]) == pytest.approx(base, rel=1e-12)


class TestSynthetic:
    def test_deterministic_and_undirected(self):
        ds1 = planted_community_dataset(n_nodes=50, seed=4)
        ds2 = planted_community_dataset(n_nodes=50, seed=4)
        assert ds1.graph.edges == ds2.graph.edges and ds1.values == ds2.values
        assert not ds1.graph.directed

    def test_values_track_community_means(self):
        ds = planted_community_dataset(n_nodes=100, n_communities=4, value_noise=0.01, seed=1)
        values = np.array([ds.values[i] for i in range(100)])
        for c in range(4):
            block = values[c * 25:(c + 1) * 25]
            assert np.all(np.abs(block - (c + 1)) < 0.06)

    def test_parameter_validation(self):
        with pytest.raises(ArgumentError):
            planted_community_dataset(n_nodes=10, n_communities=11)
        with pytest.raises(ArgumentError):
            planted_community_dataset(p_in=0.2, p_out=0.5)
        with pytest.raises(ArgumentError):
            planted_community_dataset(value_noise=-0.1)


class TestRunOnce:
    def test_bitwise_deterministic(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        r1 = run_once(planted_small_dataset, cfg, 5.0, seed=3)
        r2 = run_once(planted_small_dataset, cfg, 5.0, seed=3)
        assert r1.gnmse == r2.gnmse
        assert np.array_equal(r1.predictions, r2.predictions)
        assert r1.sampled == r2.sampled

    def test_identical_values_average_out_in_the_flat_regime(self):
        # constant nodal values: far above the selected variance the model
        # predicts the shared value almost exactly
        ds = planted_community_dataset(n_nodes=20, n_communities=1, p_in=0.4, p_out=0.4,
                                       value_noise=0.0, seed=5)
        cfg = RunConfig(eta=0.1, n_features=100, epochs=3, sample_fraction=0.4)
        report = skg.resolve_sigma_sq(ds, cfg, seed=1)
        result = run_once(ds, cfg, 100 * report.d_sq_max, seed=1)
        assert result.gnmse < 0.05

    def test_trace_retention_and_probe_checks(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        plain = fit_prepared(prepared, cfg, 5.0, seed=3)
        assert plain.trace is None and plain.probe_node is None
        probe = prepared.tested[1]
        result = fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=probe)
        assert result.trace is not None and result.probe_node == probe
        assert result.trace.weights.size == result.training_trace.duration
        assert result.gnmse == plain.gnmse
        for not_tested in (prepared.sampled[0], "no-such-node"):
            with pytest.raises(DataError):
                fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=not_tested)

    def test_probe_run_builds_the_sampled_features_once(self, planted_small_dataset,
                                                         monkeypatch):
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        sampled_builds, fill = [], skg.rff._fill_features

        def spy(banks, record, out):
            sampled_builds.append(record is prepared._nonzeros)
            return fill(banks, record, out)

        monkeypatch.setattr(harness, "_fill_features", spy)
        monkeypatch.setattr(skg.rff, "_fill_features", spy)  # feature_matrix's blocks
        fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=prepared.tested[1])
        # the sampled record, the tested one, then the probe's vector
        assert sampled_builds == [True, False, False]

    def test_needs_tested_nodes(self, planted_small_dataset):
        with pytest.raises(DegenerateInputError):
            run_once(planted_small_dataset, RunConfig(sample_fraction=1.0), 5.0, seed=0)

    def test_prepare_matches_the_seeded_split(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        sampled, tested = skg.split_sample(planted_small_dataset.node_ids, 0.4, 3)
        assert prepared.sampled == tuple(sampled) and prepared.tested == tuple(tested)
        assert prepared._nonzeros.shape == (len(sampled), len(sampled))
        assert prepared._test_nonzeros.shape == (len(tested), len(sampled))
        assert np.abs(prepared.train_values).max() == 1.0
        with pytest.raises(ValueError):
            prepared.train_values[0] = 5.0  # shared across a seed's grid cells
        again = prepare(planted_small_dataset, cfg, seed=3)  # a pinned split is its seed's
        assert again.sampled == prepared.sampled
        assert np.array_equal(again._test_nonzeros.dense(), prepared._test_nonzeros.dense())

    def test_tested_vectors_are_built_on_first_read(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        select_prepared(prepared, cfg, seed=3)
        assert "_test_nonzeros" not in prepared.__dict__  # plain selection never reads them
        # a run scores the tested record block by block, with no dense tested matrix
        fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=prepared.tested[0])
        assert "_test_nonzeros" in prepared.__dict__
        expected = build_adjacency_vectors(planted_small_dataset.graph, prepared.tested,
                                           prepared.sampled)
        assert np.array_equal(prepared._test_nonzeros.dense(), expected)
        assert prepared._test_nonzeros is prepared._test_nonzeros  # built once
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.tested = prepared.sampled
        refined = prepare(planted_small_dataset, cfg, seed=3)
        select_prepared(refined, dataclasses.replace(cfg, refine_noise=True), seed=3)
        assert "_test_nonzeros" in refined.__dict__
        # a replaced split builds its own tested record from the same graph
        moved = dataclasses.replace(refined, train_values=-refined.train_values)
        assert "_test_nonzeros" not in moved.__dict__ and moved.graph is refined.graph
        assert np.array_equal(moved._test_nonzeros.dense(), expected)

    def test_sampled_vectors_are_built_on_first_read(self, planted_small_dataset):
        # plain selection scans the sampled matrix's nonzeros, read from the graph's arcs
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        assert "_nonzeros" not in prepared.__dict__
        report = select_prepared(prepared, cfg, seed=3)
        assert "_nonzeros" in prepared.__dict__ and "_test_nonzeros" not in prepared.__dict__
        expected = build_adjacency_vectors(planted_small_dataset.graph, prepared.sampled,
                                           prepared.sampled)
        assert np.array_equal(prepared._nonzeros.dense(), expected)
        assert prepared._nonzeros is prepared._nonzeros  # built once
        assert report == skg.select(expected, cfg.eta, cfg.n_features, closeness=cfg.closeness)

    def test_selection_peaks_below_one_dense_sampled_matrix(self):
        # 3000 sampled nodes of a sparse directed graph: the dense sampled matrix alone
        # would take n^2 * 8 = 72 MB; selection reads its nonzeros from the arcs instead
        rng = np.random.default_rng(11)
        n_nodes = 7500
        ends = rng.integers(0, n_nodes, (8 * n_nodes, 2)).tolist()
        graph = skg.Graph(ends, directed=True, nodes=range(n_nodes))
        dataset = skg.Dataset(graph, {node: float(node % 7) for node in range(n_nodes)})
        cfg = RunConfig()
        tracemalloc.start()
        try:
            report = skg.resolve_sigma_sq(dataset, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sampled = prepare(dataset, cfg, seed=0).sampled
        assert len(sampled) == 3000 and peak < len(sampled) ** 2 * 8, peak
        vectors = build_adjacency_vectors(graph, sampled, sampled)
        assert report == skg.select(vectors, cfg.eta, cfg.n_features, closeness=cfg.closeness)

    def test_fixed_split_override(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        base = run_once(planted_small_dataset, cfg, 5.0, seed=3)
        pinned = prepare(planted_small_dataset, cfg, seed=3)  # the split of seed 3
        moved = fit_prepared(pinned, cfg, 5.0, seed=4)
        assert moved.sampled == base.sampled
        assert moved.gnmse != base.gnmse  # bank/order randomness still moves


@pytest.fixture(scope="module")
def small_ds():
    return planted_community_dataset(n_nodes=40, n_communities=2, seed=3)


class TestSweep:
    def test_single_repeat_reports_zero_std(self, small_ds):
        grid = SweepGrid(sigma_sq_values=(1.0, 4.0), config=RunConfig(n_features=32))
        results = sweep(small_ds, grid, repeats=1, base_seed=0)
        assert all(r.gnmse_std == 0.0 and r.repeats == 1 for r in results)

    def test_mean_invariant_under_seed_reordering(self, small_ds):
        grid = SweepGrid(sigma_sq_values=(2.0,), config=RunConfig(n_features=32))
        forward = sweep(small_ds, grid, repeats=4, base_seed=1)
        backward = [sweep(small_ds, grid, repeats=1, base_seed=seed)[0].gnmse_mean
                    for seed in (4, 3, 1, 2)]
        assert forward[0].seeds == (1, 2, 3, 4)
        assert forward[0].gnmse_mean == pytest.approx(np.mean(backward), rel=1e-12)

    def test_parallel_equals_sequential(self, small_ds):
        grid = SweepGrid(sigma_sq_values=(1.0, 4.0), config=RunConfig(n_features=32))
        serial = sweep(small_ds, grid, repeats=2, base_seed=5, jobs=1)
        parallel = sweep(small_ds, grid, repeats=2, base_seed=5, jobs=2)
        assert [r.gnmse_mean for r in serial] == [r.gnmse_mean for r in parallel]

    def test_a_pool_is_never_wider_than_the_seeds(self, small_ds, monkeypatch):
        # a pool forks all its workers at its first task, so idle ones would each cost a
        # process; the fake records the width asked for and maps in this process
        import concurrent.futures

        widths = []

        class Pool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        grid = SweepGrid(sigma_sq_values=(1.0, 4.0), config=RunConfig(n_features=16))
        wide = sweep(small_ds, grid, repeats=2, base_seed=5, jobs=64)
        assert widths == [2]
        single = sweep(small_ds, grid, repeats=1, base_seed=5, jobs=4)
        assert widths == [2]  # one seed runs in this process, with no pool
        assert wide == sweep(small_ds, grid, repeats=2, base_seed=5)
        assert single == sweep(small_ds, grid, repeats=1, base_seed=5)

    def test_fixed_split_isolates_bank_randomness(self, small_ds):
        cfg = RunConfig(n_features=32)
        grid = SweepGrid(sigma_sq_values=(2.0,), config=cfg)
        results = sweep(small_ds, grid, repeats=2, base_seed=7, fixed_split=True)
        pinned = prepare(small_ds, cfg, 7)
        manual = [fit_prepared(pinned, cfg, 2.0, 7 + r).gnmse for r in range(2)]
        assert results[0].gnmse_mean == pytest.approx(np.mean(manual), rel=1e-12)

    @pytest.mark.parametrize("fixed_split", [False, True])
    def test_each_task_prepares_its_split_seed(self, small_ds, monkeypatch, fixed_split):
        prepared_seeds, original = [], harness.prepare

        def spy(dataset, config, seed):
            prepared_seeds.append(seed)
            return original(dataset, config, seed)

        monkeypatch.setattr(harness, "prepare", spy)
        grid = SweepGrid(sigma_sq_values=(2.0,), config=RunConfig(n_features=16))
        sweep(small_ds, grid, repeats=3, base_seed=4, fixed_split=fixed_split)
        assert tuple(prepared_seeds) == ((4, 4, 4) if fixed_split else (4, 5, 6))

    def test_cells_equal_run_once_bitwise(self, small_ds):
        cfg = RunConfig(n_features=32)
        grid = SweepGrid(sigma_sq_values=(1.0, 4.0), config=cfg)
        results = sweep(small_ds, grid, repeats=2, base_seed=3)
        for res in results:
            cells = np.array([run_once(small_ds, cfg, res.sigma_sq, seed).gnmse
                              for seed in (3, 4)])
            assert res.gnmse_mean == cells.mean()
            assert res.gnmse_std == cells.std(ddof=1)
        single = sweep(small_ds, grid, repeats=1, base_seed=5)
        assert [r.gnmse_mean for r in single] == [
            run_once(small_ds, cfg, v, 5).gnmse for v in grid.sigma_sq_values]

    def test_csv_marks_the_selected_variance(self, small_ds, tmp_path):
        cfg = RunConfig(n_features=32)
        report = skg.resolve_sigma_sq(small_ds, cfg, seed=0)
        grid = default_grid(report, cfg, points=5)
        results = sweep(small_ds, grid, repeats=1, base_seed=0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, results, marked_sigma_sq=grid.marked_sigma_sq)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma_sq,gnmse_mean,gnmse_std,repeats,is_theoretical_ed"
        assert sum(line.endswith(",true") for line in lines[1:]) == 1

    def test_selected_variance_next_to_a_grid_point_is_marked(self, tmp_path):
        # within rtol 1e-9 of a grid point, but not within 1e-12
        ed = float(np.geomspace(0.1, 500.0, 25)[12]) * (1.0 + 5e-10)
        report = skg.SelectionReport(
            d_sq_max=4.0, d_sq_min_nonzero=1.0, noise_up=0.01, noise_up_source="theoretical",
            sigma_sq_ed=ed, sigma_sq_ce=1.0, sigma_sq_da=50.0, closeness=0.1, eta=0.1,
            n_features=200)
        grid = default_grid(report, RunConfig(), points=25)
        assert len(grid.sigma_sq_values) == 25 and grid.sigma_sq_values[12] == ed
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [harness.GnmseResult(v, 0.5, 0.0, 1, (0,))
                               for v in grid.sigma_sq_values],
                        marked_sigma_sq=grid.marked_sigma_sq)
        marked = [line for line in path.read_text().splitlines() if line.endswith(",true")]
        assert len(marked) == 1 and float(marked[0].split(",")[0]) == ed

    def test_grid_validation(self):
        with pytest.raises(ArgumentError):
            SweepGrid(sigma_sq_values=(2.0, 1.0), config=RunConfig())
        with pytest.raises(ArgumentError):
            SweepGrid(sigma_sq_values=(-1.0,), config=RunConfig())
        with pytest.raises(ArgumentError):
            SweepGrid(sigma_sq_values=(), config=RunConfig())
        for bad in (math.nan, math.inf):
            with pytest.raises(ArgumentError, match="finite"):
                SweepGrid(sigma_sq_values=(1.0, bad, 2.0), config=RunConfig())

    def test_default_grid_spans_all_regimes(self, small_ds):
        cfg = RunConfig(n_features=32)
        report = skg.resolve_sigma_sq(small_ds, cfg, seed=0)
        grid = default_grid(report, cfg, points=25)
        values = grid.sigma_sq_values
        assert values[0] == pytest.approx(report.sigma_sq_ce / 10, rel=1e-12)
        assert values[-1] == pytest.approx(report.sigma_sq_da * 10, rel=1e-12)
        assert any(v == report.sigma_sq_ed for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_default_grid_rejects_an_inverted_range(self):
        # a refined ceiling near 2*eta can push sigma_ce/10 above 10*sigma_da
        report = skg.SelectionReport(
            d_sq_max=4.0, d_sq_min_nonzero=1.0, noise_up=0.19, noise_up_source="refined",
            sigma_sq_ed=40.0, sigma_sq_ce=300.0, sigma_sq_da=2.0, closeness=0.1, eta=0.1,
            n_features=200)
        with pytest.raises(ArgumentError, match="manual grid") as caught:
            default_grid(report, RunConfig(), points=5)
        assert caught.value.exit_code == 2


def _cells(dataset, cfg, values, seeds, pinned=None):
    """Reference cells, one fit_prepared per (variance, seed)."""
    return np.array([[fit_prepared(pinned or prepare(dataset, cfg, seed), cfg, v, seed).gnmse
                      for seed in seeds] for v in values])


class TestLockstepGrid:
    """The lockstep grid path against fit_prepared, cell by cell, compared with ==."""

    @given(values=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=5, unique=True),
           base_seed=st.integers(0, 50), repeats=st.integers(1, 3),
           per_chunk=st.sampled_from((1, 2, 3)))
    @settings(max_examples=15, deadline=None)
    def test_cells_equal_fit_prepared_in_any_chunking(self, small_ds, values, base_seed,
                                                      repeats, per_chunk):
        cfg = RunConfig(n_features=16)
        values = tuple(sorted(values))
        seeds = range(base_seed, base_seed + repeats)
        prepared = {seed: prepare(small_ds, cfg, seed) for seed in seeds}
        per_variance = {len(p.sampled) * 2 * cfg.n_features * 8 for p in prepared.values()}
        assert len(per_variance) == 1  # every seed samples as many nodes
        chunks, original = [], skg.model.sgd_pass

        def spy(features, order, targets, state, eta):
            chunks.append(state.shape[0])
            return original(features, order, targets, state, eta)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_GRID_BYTES", per_chunk * per_variance.pop())
            patch.setattr(skg.model, "sgd_pass", spy)
            grid = [harness._sweep_seed((small_ds, cfg, values, seed, seed))
                    for seed in seeds]
            results = sweep(small_ds, SweepGrid(sigma_sq_values=values, config=cfg),
                            repeats=repeats, base_seed=base_seed)
        cells = _cells(small_ds, cfg, values, seeds)
        assert np.array_equal(np.array(grid).T, cells)
        expected = [min(per_chunk, len(values) - start)
                    for start in range(0, len(values), per_chunk)]
        assert chunks == 2 * len(seeds) * expected
        for res, row in zip(results, cells):
            assert res.gnmse_mean == row.mean()
            assert res.gnmse_std == (row.std(ddof=1) if row.size > 1 else 0.0)

    def test_each_record_block_is_made_dense_once_per_chunk(self, monkeypatch):
        # one chunk of three variances reads the sampled record's two blocks (256 and 304
        # of 560 rows) once each and runs every bank on them, not once per variance
        ds = planted_community_dataset(n_nodes=1400, n_communities=4, p_in=0.02, p_out=0.002,
                                       seed=5)
        cfg = RunConfig(n_features=16)
        prepared = prepare(ds, cfg, seed=2)
        record, dense, blocks = prepared._nonzeros, skg.graph_data._Nonzeros.dense, []

        def counted(self, rows=None):
            made = dense(self, rows)
            if self is record:
                blocks.append(len(made))
            return made

        monkeypatch.setattr(skg.graph_data._Nonzeros, "dense", counted)
        cells = list(harness._fit_grid(prepared, cfg, (0.5, 2.0, 8.0), seed=2))
        assert len(cells) == 3 and blocks == [256, 304]

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_parallel_pinned_split_cells_equal_fit_prepared(self, small_ds, monkeypatch,
                                                            per_chunk):
        cfg = RunConfig(n_features=16)
        values, seeds = (0.5, 2.0, 8.0), range(4, 7)
        pinned = prepare(small_ds, cfg, 4)
        monkeypatch.setattr(harness, "_GRID_BYTES",
                            per_chunk * len(pinned.sampled) * 2 * cfg.n_features * 8)
        results = sweep(small_ds, SweepGrid(sigma_sq_values=values, config=cfg), repeats=3,
                        base_seed=4, jobs=2, fixed_split=True)
        cells = _cells(small_ds, cfg, values, seeds, pinned=pinned)
        assert [r.gnmse_mean for r in results] == [row.mean() for row in cells]
        assert [r.gnmse_std for r in results] == [row.std(ddof=1) for row in cells]

    @pytest.mark.parametrize("case", ["no tested nodes", "no tested nodes, a probe node",
                                      "non-finite value", "non-finite vector",
                                      "infinite variance"])
    def test_errors_match_fit_prepared(self, small_ds, case):
        untested = case.startswith("no tested nodes")
        cfg = RunConfig(n_features=16, sample_fraction=1.0 if untested else 0.4)
        prepared = prepare(small_ds, cfg, 0)
        # a split with no tested node is degenerate before any probe node is checked
        probe = {"probe_node": prepared.sampled[0]} if case.endswith("probe node") else {}
        if case == "non-finite value":
            values = prepared.train_values.copy()
            values[3] = math.nan
            prepared = dataclasses.replace(prepared, train_values=values)
        elif case == "non-finite vector":
            record = prepared._nonzeros
            values = record.values.copy()
            values[1] = math.inf
            # a split whose lazily built record reads this (no finite edge weight gives it)
            prepared = dataclasses.replace(prepared)
            object.__setattr__(prepared, "_nonzeros",
                               skg.graph_data._Nonzeros(record.shape, record.flat, values))
        sigma_sq = math.inf if case == "infinite variance" else 2.0
        with np.errstate(invalid="ignore"):  # sin/cos of an infinite phase
            with pytest.raises(SkgError) as single:
                fit_prepared(prepared, cfg, sigma_sq, 0, **probe)
            with pytest.raises(type(single.value)):
                list(harness._fit_grid(prepared, cfg, (1.0, sigma_sq), 0))
        assert type(single.value) is (DegenerateInputError if untested else {
            "infinite variance": ArgumentError}.get(case, NumericError))


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            RunConfig(eta=0.0)
        with pytest.raises(ArgumentError):
            RunConfig(sample_fraction=0.0)
        with pytest.raises(ArgumentError):
            RunConfig(closeness=0.6)
        with pytest.raises(ArgumentError, match="bogus"):
            RunConfig(normalization="bogus")
        # (1 - 2*eta) must contract: eta outside (0, 1) diverges or oscillates
        bank = skg.sample_bank(2.0, 8, 3, seed=0)
        for eta in (1.0, 1.5, 5.0, -0.1):
            with pytest.raises(ArgumentError):
                RunConfig(eta=eta)
            with pytest.raises(ArgumentError):
                skg.SkgModel(bank=bank, eta=eta)


def _scatter_rows(vectors, values):
    """Reference scatter: each row's later pairs from their differences, row by row."""
    rows = []
    for i in range(len(vectors) - 1):
        diff = vectors[i + 1:] - vectors[i]
        rows.append(np.column_stack([np.einsum("ij,ij->i", diff, diff),
                                     np.abs(values[i + 1:] - values[i])]))
    return np.concatenate(rows)


class TestExports:
    def test_scatter_single_pair(self):
        rows = export_scatter(np.ones((2, 3)), [0.0, 1.0])
        assert rows.tolist() == [[0.0, 1.0]]
        # one sampled node is a sample too small to scan, as for the pairwise statistics
        with pytest.raises(DegenerateInputError):
            export_scatter(np.ones((1, 3)), np.ones(1))
        # the values are checked as a training set checks them
        for vectors in (np.ones((2, 3)), skg.graph_data._scan_input(np.ones((2, 3)))):
            with pytest.raises(ArgumentError):
                export_scatter(vectors, np.ones(3))

    @given(n=st.integers(2, 600), m=st.integers(1, 60),
           values=st.sampled_from(["binary", "signed", "at-bound", "past-bound", "lognormal"]),
           density=st.sampled_from([0.02, 0.3, 1.0]), duplicates=st.integers(0, 20),
           zero_rows=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @example(n=257, m=30, values="binary", density=0.3, duplicates=5, zero_rows=2, seed=1)
    @example(n=258, m=30, values="lognormal", density=0.3, duplicates=5, zero_rows=2, seed=2)
    @example(n=258, m=8, values="past-bound", density=1.0, duplicates=0, zero_rows=0, seed=3)
    @example(n=600, m=40, values="at-bound", density=0.02, duplicates=20, zero_rows=5, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_histogram_and_scatter_equal_the_row_loop(self, n, m, values, density, duplicates,
                                                      zero_rows, seed):
        # both read the Gram blocks of the pairwise scan, in row-major order: on exact
        # blocks (integers within 4 m max|a|^2 <= 2^53) the Gram values, otherwise each
        # row's differences; every value must be the row loop's, bit for bit
        rng = np.random.default_rng(seed)
        vectors = _scan_vectors(rng, n, m, values, density, duplicates, zero_rows)
        node_values = rng.standard_normal(n)
        assert repr(skg.pairwise_histogram(vectors)) == repr(_loop_histogram(vectors))
        rows = export_scatter(vectors, node_values)
        expected = _scatter_rows(vectors, node_values)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()

    def test_scatter_counts_all_pairs(self):
        rng = np.random.default_rng(0)
        assert export_scatter(rng.random((9, 3)), rng.standard_normal(9)).shape == (36, 2)
        # every row equals the row-loop reference, on 0/1 and on weighted vectors
        binary = (rng.random((30, 45)) < 0.3).astype(np.float64)
        values = rng.standard_normal(30)
        for vectors in (binary, binary * rng.uniform(0.5, 2.0, binary.shape)):
            rows = export_scatter(vectors, values)
            assert np.array_equal(rows, _scatter_rows(vectors, values))

    def test_bf_trace_rows_and_state_error(self, planted_small_dataset):
        cfg = RunConfig(n_features=64)
        plain = run_once(planted_small_dataset, cfg, 5.0, seed=3)
        with pytest.raises(StateError):
            export_bf_trace(plain)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        kept = fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=prepared.tested[0])
        rows = export_bf_trace(kept)
        assert len(rows) == kept.training_trace.duration
        assert rows[0][0] == 1 and rows[-1][0] == len(rows)
        # the per-index rows, value types included
        trace = kept.trace
        expected = [(i + 1, float(trace.similarities[i]), float(trace.weights[i]),
                     float(trace.alpha[i]) if trace.alpha_valid[i] else None,
                     bool(trace.alpha_valid[i])) for i in range(trace.weights.size)]
        assert rows == expected
        assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row))
                                                           for row in expected]

    def test_bf_trace_csv_layout(self, planted_small_dataset, tmp_path):
        cfg = RunConfig(n_features=64)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        kept = fit_prepared(prepared, cfg, 5.0, seed=3, probe_node=prepared.tested[0])
        path = tmp_path / "bf.csv"
        write_bf_trace_csv(path, export_bf_trace(kept))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,B,F,alpha,alpha_flag"
        assert len(lines) == 1 + kept.training_trace.duration
        # the final row has gap 1: no conformity factor, empty alpha and flag 0
        assert lines[-1].endswith(",,0")

    def test_chaos_regime_weights_sit_in_the_noise_range(self, planted_small_dataset):
        # far below the chaos/extending boundary, nearly all weights fall
        # inside the run's own noise estimate
        cfg = RunConfig(eta=0.1, n_features=200, epochs=3)
        report = skg.resolve_sigma_sq(planted_small_dataset, cfg, seed=3)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        result = fit_prepared(prepared, cfg, report.sigma_sq_ce / 10, seed=3,
                              probe_node=prepared.tested[0])
        trace = result.trace
        fraction = np.mean(np.abs(trace.weights) <= trace.noise_up)
        assert fraction >= 0.90

    def test_flat_regime_weights_follow_the_geometric_profile(self, planted_small_dataset):
        # far above the disturbing/averaging boundary the weights decay like
        # 2*eta*(1-2*eta)^(T-i); check the last 20 steps within 20%
        cfg = RunConfig(eta=0.1, n_features=200, epochs=3)
        report = skg.resolve_sigma_sq(planted_small_dataset, cfg, seed=3)
        prepared = prepare(planted_small_dataset, cfg, seed=3)
        result = fit_prepared(prepared, cfg, 100 * report.d_sq_max, seed=3,
                              probe_node=prepared.tested[0])
        duration = result.trace.weights.size
        steps = np.arange(1, duration + 1)
        profile = 2 * 0.1 * (1 - 2 * 0.1) ** (duration - steps)
        ratio = result.trace.weights[-20:] / profile[-20:]
        assert np.all(np.abs(ratio - 1.0) < 0.20)


def test_temperature_scatter_aligns_distance_and_values_if_installed():
    """Close station pairs have close values (qualitative, real data)."""
    edges, values = require_data("temperature_jan/unweighted_edges.csv",
                                 "temperature_jan/values.csv")
    dataset = skg.load_dataset(edges, values, weighted=False, directed=False)
    sampled, tested = skg.split_sample(dataset.node_ids, 0.4, seed=0)
    vectors = skg.build_adjacency_vectors(dataset.graph, sampled, sampled)
    _, normalized, _ = apply_normalization(
        "max-abs", dataset.value_array(sampled), dataset.value_array(tested)
    )
    rows = export_scatter(vectors, normalized)
    close = rows[rows[:, 0] <= 5.0, 1]
    far = rows[rows[:, 0] >= 15.0, 1]
    assert close.size > 0 and far.size > 0
    assert close.mean() < far.mean()
