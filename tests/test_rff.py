"""Feature bank sampling, the sin/cos map, and the exact kernel."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import skg
from skg import streams
from skg.errors import ArgumentError
from skg.graph_data import Graph, _Nonzeros
from skg.harness import export_scatter
from skg.model import SkgModel
from skg.rff import (_fill_features, feature_map, feature_matrix, kernel_exact, sample_bank,
                     sample_banks)

from test_graph_data import _oracle_out, _oracle_vectors


class TestSampleBank:
    def test_deterministic_per_seed(self):
        b1 = sample_bank(2.0, 16, 5, seed=3)
        b2 = sample_bank(2.0, 16, 5, seed=3)
        assert np.array_equal(b1.frequencies, b2.frequencies)
        assert not np.array_equal(b1.frequencies, sample_bank(2.0, 16, 5, seed=4).frequencies)

    def test_entry_variance_matches_inverse_sigma_sq(self):
        # sample-moment oracle: Var(entries) should be 1/sigma_sq
        var1 = sample_bank(1.0, 10000, 1, seed=0).frequencies.var()
        assert abs(var1 - 1.0) < 0.05
        var4 = sample_bank(4.0, 10000, 1, seed=0).frequencies.var()
        assert abs(var4 - 0.25) < 0.02

    def test_entries_are_gaussian(self):
        bank = sample_bank(2.0, 100, 100, seed=5)
        result = scipy_stats.kstest(bank.frequencies.ravel(), "norm",
                                    args=(0.0, 1.0 / math.sqrt(2.0)))
        assert result.pvalue > 0.01

    def test_argument_errors(self):
        with pytest.raises(ArgumentError):
            sample_bank(0.0, 10, 3, seed=0)
        with pytest.raises(ArgumentError):
            sample_bank(1.0, 0, 3, seed=0)
        with pytest.raises(ArgumentError):
            sample_bank(1.0, 10, 3, seed=-1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_variance_rejected(self, bad):
        # an infinite variance would give all-zero frequencies, a constant feature map
        with pytest.raises(ArgumentError, match="finite"):
            sample_bank(bad, 10, 3, seed=0)
        with pytest.raises(ArgumentError, match="finite"):
            sample_banks((1.0, bad, 2.0), 10, 3, seed=0)

    @given(values=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
           n_features=st.integers(1, 12), input_dim=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_banks_equal_single_draws(self, values, n_features, input_dim, seed):
        # one draw serves every variance: each bank is the one sample_bank gives alone,
        # the seed's BANK-stream draw divided by sqrt(sigma_sq)
        draw = streams.stream(seed, streams.BANK).standard_normal((n_features, input_dim))
        banks = sample_banks(values, n_features, input_dim, seed)
        assert len(banks) == len(values)
        for sigma_sq, bank in zip(values, banks):
            single = sample_bank(sigma_sq, n_features, input_dim, seed)
            assert np.array_equal(bank.frequencies, draw / math.sqrt(sigma_sq))
            assert np.array_equal(bank.frequencies, single.frequencies)
            assert (bank.sigma_sq, bank.seed) == (single.sigma_sq, single.seed)


def _concatenated(bank, vectors):
    """Reference feature matrix: sin and cos blocks concatenated, then divided."""
    phase = vectors @ bank.frequencies.T
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1) / math.sqrt(bank.n_features)


class TestFeatureMap:
    def test_zero_vector_layout(self):
        # sin block then cos block: phases are all zero
        bank = sample_bank(1.0, 2, 3, seed=0)
        z = feature_map(bank, np.zeros(3))
        expected = np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(z, expected, atol=0.0)

    def test_unit_norm_on_many_inputs(self):
        bank = sample_bank(3.0, 128, 7, seed=1)
        vectors = np.random.default_rng(2).standard_normal((1000, 7)) * 3
        norms = np.einsum("ij,ij->i", feature_matrix(bank, vectors),
                          feature_matrix(bank, vectors))
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4))
    def test_unit_norm_property(self, vector):
        bank = sample_bank(2.0, 32, 4, seed=9)
        z = feature_map(bank, np.array(vector))
        assert abs(z @ z - 1.0) < 1e-10

    def test_matrix_matches_single_map(self):
        bank = sample_bank(1.5, 16, 4, seed=4)
        vectors = np.random.default_rng(0).standard_normal((5, 4))
        batch = feature_matrix(bank, vectors)
        singles = np.stack([feature_map(bank, v) for v in vectors])
        assert np.allclose(batch, singles, atol=1e-15)

    @given(n=st.integers(1, 40), input_dim=st.integers(1, 30), n_features=st.integers(1, 60),
           sigma_sq=st.floats(1e-2, 1e2), weighted=st.booleans(), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_matrix_equals_the_concatenated_form(self, n, input_dim, n_features, sigma_sq,
                                                 weighted, seed):
        rng = np.random.default_rng(seed)
        vectors = (rng.random((n, input_dim)) < 0.3).astype(np.float64)
        if weighted:
            vectors *= rng.uniform(0.5, 2.0, vectors.shape)
        bank = sample_bank(sigma_sq, n_features, input_dim, seed)
        assert np.array_equal(feature_matrix(bank, vectors), _concatenated(bank, vectors))

    @pytest.mark.parametrize("n, input_dim", [(80, 80), (400, 400), (1080, 1080), (1620, 1080)])
    def test_matrix_equals_the_concatenated_form_at_workload_shapes(self, n, input_dim):
        rng = np.random.default_rng(n)
        vectors = (rng.random((n, input_dim)) < 0.05) * rng.uniform(0.5, 2.0, (n, input_dim))
        bank = sample_bank(2.0, 200, input_dim, seed=1)
        assert np.array_equal(feature_matrix(bank, vectors), _concatenated(bank, vectors))

    def test_negative_zero_entries_read_as_positive_zero(self):
        # a dense array is read as the record of its entries != 0, as the graph's arcs are:
        # a -0.0 entry is no entry, so even a row of them has +0.0 phases
        rng = np.random.default_rng(5)
        vectors = np.where(rng.random((300, 40)) < 0.3, rng.uniform(-2.0, 2.0, (300, 40)), -0.0)
        vectors[7] = -0.0
        assert np.signbit(vectors[vectors == 0.0]).all()
        assert "source" not in vars(_Nonzeros.of(vectors))
        for bank in (sample_bank(2.0, 16, 40, seed=3), sample_bank(2.0, 200, 40, seed=3)):
            assert (feature_matrix(bank, vectors).tobytes()
                    == feature_matrix(bank, vectors + 0.0).tobytes())
        bank = sample_bank(1.0, 1, 1, seed=0)
        assert feature_matrix(bank, [[-0.0]]).tobytes() == feature_matrix(bank, [[0.0]]).tobytes()

    def test_dimension_mismatch(self):
        bank = sample_bank(1.0, 4, 3, seed=0)
        with pytest.raises(ArgumentError):
            feature_map(bank, np.zeros(5))

    def test_inner_product_approximates_kernel(self):
        # Monte Carlo oracle: unit-distance pair under sigma_sq=2 -> exp(-1/4)
        bank = sample_bank(2.0, 10000, 8, seed=11)
        a1 = np.random.default_rng(3).random(8)
        a2 = a1.copy()
        a2[0] -= 1.0
        value = feature_map(bank, a1) @ feature_map(bank, a2)
        assert abs(value - math.exp(-0.25)) < 0.02

    def test_approximation_bound_over_random_pairs(self):
        bank = sample_bank(2.0, 10000, 10, seed=21)
        rng = np.random.default_rng(22)
        errors = []
        for _ in range(200):
            a1, a2 = rng.standard_normal(10), rng.standard_normal(10)
            approx = feature_map(bank, a1) @ feature_map(bank, a2)
            errors.append(abs(approx - kernel_exact(a1, a2, 2.0)))
        assert np.mean(np.array(errors) < 0.03) >= 0.99


def _blocked_features(dense, bank):
    """The definitional features of a dense matrix: rows cut into blocks of 256 with a tail
    shorter than 256 folded into the last block, each block's phase product, then sin/cos."""
    cuts = [*range(0, max(len(dense) // 256, 1) * 256, 256), len(dense)]
    out = np.empty((len(dense), 2 * bank.n_features))
    for start, stop in zip(cuts, cuts[1:]):
        phase = dense[start:stop] @ bank.frequencies.T
        out[start:stop] = np.concatenate([np.sin(phase), np.cos(phase)], axis=1)
    return out / math.sqrt(bank.n_features)


# Per (n, m): the rows of each dense block of a record's features and of a two-bank stack,
# whether the record's features, the stack's slot of that bank and predict_batch equal those
# of _blocked_features, and whether those equal one whole phase product, bit for bit.
_BLOCKS_SCRIPT = """
import json
import math
import numpy as np
from skg import graph_data, model, rff
""" + inspect.getsource(_blocked_features) + """
class Counted(graph_data._Nonzeros):
    def __init__(self, *args):
        super().__init__(*args)
        self.blocks = []

    def dense(self, rows=None):
        block = super().dense(rows)
        self.blocks.append(block.shape[0])
        return block

results = []
for n in (1, 255, 256, 257, 258, 513, 769, 1080, 1620):
    for m in (80, 1080, 2000):
        rng = np.random.default_rng([n, m])
        dense = (rng.random((n, m)) < 0.02) * rng.uniform(0.5, 2.0, (n, m))
        flat = np.flatnonzero(dense)
        record = Counted(dense.shape, flat, dense.ravel()[flat])
        other, bank = rff.sample_banks((0.5, 2.0), 200, m, seed=1)
        oracle = _blocked_features(dense, bank)
        fed = rff.feature_matrix(bank, record)
        blocks = list(record.blocks)
        stack = rff._fill_features((other, bank), record, np.empty((n, 2, 400)))
        stack_blocks = record.blocks[len(blocks):]
        theta = rng.standard_normal(400)
        predicted = model.SkgModel(bank, 0.1, theta).predict_batch(record)
        phase = dense @ bank.frequencies.T
        whole = np.concatenate([np.sin(phase), np.cos(phase)], axis=1) / math.sqrt(200)
        results.append([n, m, blocks, stack_blocks,
                        fed.tobytes() == oracle.tobytes() == stack[:, 1].tobytes(),
                        predicted.tobytes() == (oracle @ theta).tobytes(),
                        oracle.tobytes() == whole.tobytes()])
print(json.dumps(results))
"""


class TestRecordFeatures:
    """Features made 256 to 511 rows at a time, from a nonzero record or a dense matrix."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blocks_keep_the_bits_at_1_and_2_blas_threads(self, threads):
        # at a fixed BLAS thread count, blocks of 256 to 511 rows (a 1- or 2-row tail joins
        # the last block) give the bits of one whole phase product at the default bank size;
        # measured with OpenBLAS 0.3.31 on a 2-vCPU x86-64 box. Shorter tails did not
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(Path(skg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _BLOCKS_SCRIPT], env=env,
                             capture_output=True, check=True, text=True).stdout
        for n, m, blocks, stack_blocks, fed_equal, predicted_equal, whole_equal in json.loads(out):
            assert fed_equal and predicted_equal and whole_equal, (n, m)
            assert sum(blocks) == n and stack_blocks == blocks, (n, m, blocks, stack_blocks)
            assert blocks == [n] if n < 256 else all(256 <= b <= 511 for b in blocks), blocks

    @given(n_nodes=st.integers(1, 400), density=st.sampled_from([0.0, 0.005, 0.05]),
           weighted=st.booleans(), directed=st.booleans(), repeats=st.integers(0, 20),
           twice=st.booleans(), n_targets=st.integers(0, 700), n_features=st.integers(1, 12),
           start=st.integers(-800, 800), stop=st.integers(-800, 800) | st.none(),
           step=st.sampled_from([None, 1, 2, -1, -3]), seed=st.integers(0, 2**32 - 1))
    # 0/1 entries whose exact pair scan takes co-occurrence, then BLAS; weighted entries
    @example(n_nodes=400, density=0.005, weighted=False, directed=False, repeats=3, twice=False,
             n_targets=300, n_features=5, start=0, stop=None, step=None, seed=1)
    @example(n_nodes=400, density=0.05, weighted=False, directed=False, repeats=3, twice=True,
             n_targets=300, n_features=5, start=0, stop=None, step=None, seed=2)
    @example(n_nodes=300, density=0.05, weighted=True, directed=False, repeats=3, twice=False,
             n_targets=300, n_features=5, start=0, stop=None, step=None, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_record_features_equal_the_dense_definitional_path(
            self, n_nodes, density, weighted, directed, repeats, twice, n_targets, n_features,
            start, stop, step, seed):
        # edges repeated in either direction with another weight, the last one winning,
        # later weights of 0.0 or -0.0 (no entry, read as +0.0), nodes with no edge (all-zero
        # rows) and, when ``twice``, targets listed more than once
        rng = np.random.default_rng(seed)
        weight = (lambda: float(rng.lognormal(0.0, 1.0))) if weighted else (lambda: 1.0)
        pairs = rng.integers(0, n_nodes, (int(density * n_nodes * n_nodes), 2)).tolist()
        edges = [(src, dst, weight()) for src, dst in pairs]
        for src, dst, _ in (edges[i] for i in rng.integers(0, len(edges), repeats * bool(edges))):
            later = [weight(), 0.0, -0.0][rng.integers(0, 3)]
            edges.append((dst, src, later) if rng.random() < 0.5 else (src, dst, later))
        graph = Graph(edges, directed=directed, nodes=range(n_nodes))
        referencing = rng.permutation(n_nodes)[:rng.integers(1, n_nodes + 1)].tolist()
        targets = (rng.integers(0, n_nodes, n_targets) if twice
                   else rng.permutation(n_nodes)[:n_targets]).tolist()
        oracle = _oracle_vectors(_oracle_out(edges, directed, range(n_nodes)), targets,
                                 referencing) + 0.0
        record = _Nonzeros.of_graph(graph, targets, referencing)
        assert record.dense().tobytes() == oracle.tobytes()
        rows = slice(start, stop, step)
        assert record.dense(rows).tobytes() == oracle[rows].tobytes()
        assert record.dense(np.arange(len(targets))[rows]).tobytes() == oracle[rows].tobytes()
        other, bank = sample_banks((0.5, 2.0), n_features, len(referencing), seed)
        features = _blocked_features(oracle, bank)
        stack = _fill_features((other, bank), record, np.empty((len(targets), 2, 2 * n_features)))
        assert feature_matrix(bank, record).tobytes() == features.tobytes()
        assert stack[:, 1].tobytes() == features.tobytes()
        assert stack[:, 0].tobytes() == _blocked_features(oracle, other).tobytes()
        model = SkgModel(bank, 0.1, rng.standard_normal(2 * n_features))
        assert model.predict_batch(record).tobytes() == (features @ model.theta).tobytes()
        assert model.predict_batch(oracle).tobytes() == (features @ model.theta).tobytes()
        # the scatter of at most 150 rows: n(n-1)/2 rows each
        head, values = slice(0, 150), rng.standard_normal(min(len(targets), 150))
        if values.size >= 2:
            assert (export_scatter(record.take(head), values).tobytes()
                    == export_scatter(oracle[head], values).tobytes())


class TestKernelExact:
    def test_coincident_vectors(self):
        assert kernel_exact([1.0, 2.0], [1.0, 2.0], 3.0) == 1.0

    def test_scalar_value(self):
        # d_sq=15, sigma_sq=10 -> exp(-0.75); twice 0.1 of it is the 0.094 similarity
        a1 = np.zeros(15)
        a2 = np.ones(15)
        value = kernel_exact(a1, a2, 10.0)
        assert value == pytest.approx(0.4723665527410147, rel=1e-12)
        assert 2 * 0.1 * value == pytest.approx(0.094, abs=5e-4)

    def test_monotone_in_sigma_sq(self):
        values = [kernel_exact([0.0], [2.0], s) for s in (0.5, 5.0, 50.0, 5e6)]
        assert values == sorted(values)
        assert values[-1] > 0.999999

    def test_errors(self):
        with pytest.raises(ArgumentError):
            kernel_exact([0.0], [1.0, 2.0], 1.0)
        with pytest.raises(ArgumentError):
            kernel_exact([0.0], [1.0], 0.0)
