"""Similarity measures, contribution weights, conformity, noise ranges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skg
from skg.errors import ArgumentError, NumericError, StateError
from skg.graph_data import TrainingSet
from skg.model import SkgModel
from skg.rff import feature_matrix, sample_bank
from skg.weights import (conformity_alpha, contribution_weights,
                         expected_weight_sum, noise_up_from_run, noise_up_theoretical,
                         probe_weight_traces, similarity, similarity_approx,
                         similarity_conditional_variance, similarity_matrix)


def traces_for_identical_vectors(eta, duration, n_features=64, seed=3):
    """Run the real feature pipeline on a constant sequence plus one probe."""
    vector = np.random.default_rng(8).random(6)
    bank = sample_bank(1.5, n_features, 6, seed=seed)
    features = feature_matrix(bank, np.tile(vector, (duration, 1)))
    return probe_weight_traces(features, features[:1], eta)[0]


class TestSimilarity:
    def test_identical_vectors_hit_twice_eta(self):
        bank = sample_bank(2.0, 64, 5, seed=1)
        a = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        assert similarity(bank, a, a, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_value_near_exponential_limit(self):
        # d_sq=15 at sigma_sq=10, eta=0.1, 200 features
        bank = sample_bank(10.0, 200, 20, seed=10)
        base = np.random.default_rng(0).random(20)
        other = base.copy()
        other[0] -= math.sqrt(15.0)
        value = similarity(bank, base, other, 0.1)
        assert 0.085 < value < 0.105

    @given(
        a=st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
        b=st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
        eta=st.floats(0.01, 0.5),
    )
    def test_bounded_by_twice_eta(self, a, b, eta):
        bank = sample_bank(1.0, 16, 4, seed=2)
        value = similarity(bank, np.array(a), np.array(b), eta)
        assert abs(value) <= 2 * eta * (1 + 1e-12)


class TestSimilarityApprox:
    def test_zero_distance(self):
        assert similarity_approx(0.0, 5.0, 0.1) == pytest.approx(0.2, abs=0.0)

    def test_reference_value(self):
        value = similarity_approx(15.0, 10.0, 0.1)
        assert value == pytest.approx(0.09447331054820294, rel=1e-12)
        assert round(value, 3) == 0.094

    def test_monotone_decay_to_zero(self):
        values = [similarity_approx(d, 10.0, 0.1) for d in (0, 1, 10, 100, 1e4)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-6

    def test_argument_errors(self):
        with pytest.raises(ArgumentError):
            similarity_approx(-1.0, 1.0, 0.1)
        with pytest.raises(ArgumentError):
            similarity_approx(1.0, 0.0, 0.1)


class TestSimilarityConditionalVariance:
    def test_zero_at_zero_distance(self):
        assert similarity_conditional_variance(0.0, 2.0, 0.1, 200) == 0.0

    def test_far_limit_matches_noise_ceiling_squared(self):
        far = similarity_conditional_variance(1e9, 2.0, 0.1, 200)
        assert far == pytest.approx(1e-4, rel=1e-9)
        assert far == pytest.approx(noise_up_theoretical(0.1, 200) ** 2, rel=1e-12)

    def test_decreasing_in_distance(self):
        values = [similarity_conditional_variance(d, 3.0, 0.1, 100) for d in (0.1, 1, 5, 50)]
        assert values == sorted(values)

    def test_empirical_spread_respects_bound(self):
        # sampled similarities stay within five conditional-sigmas of the limit
        bank = sample_bank(5.0, 5000, 12, seed=17)
        rng = np.random.default_rng(18)
        hits = 0
        for _ in range(300):
            a1, a2 = rng.standard_normal(12) * 2, rng.standard_normal(12) * 2
            d_sq = float(((a1 - a2) ** 2).sum())
            bound = 5 * math.sqrt(similarity_conditional_variance(d_sq, 5.0, 0.1, 5000))
            if abs(similarity(bank, a1, a2, 0.1) - similarity_approx(d_sq, 5.0, 0.1)) <= bound:
                hits += 1
        assert hits / 300 >= 0.99


class TestContributionWeights:
    def test_final_weight_equals_similarity(self):
        values = np.zeros((4, 4))
        values[np.triu_indices(4, k=1)] = [0.11, 0.12, 0.13, 0.21, 0.22, 0.31]
        trace = contribution_weights(values, target=4)
        assert trace.weights[-1] == values[2, 3]

    def test_three_step_recursion_by_hand(self):
        values = np.zeros((4, 4))
        b12, b13, b14, b23, b24, b34 = 0.11, 0.12, 0.13, 0.21, 0.22, 0.31
        values[np.triu_indices(4, k=1)] = [b12, b13, b14, b23, b24, b34]
        trace = contribution_weights(values, target=4)
        f34 = b34
        f24 = b24 - b23 * b34
        f14 = b14 - b12 * f24 - b13 * f34
        assert trace.weights == pytest.approx([f14, f24, f34], abs=1e-15)

    def test_identical_vectors_follow_geometric_closed_form(self):
        trace = traces_for_identical_vectors(eta=0.1, duration=3)
        assert trace.weights == pytest.approx([0.128, 0.16, 0.2], abs=1e-12)
        assert trace.weights.sum() == pytest.approx(0.488, abs=1e-12)

    def test_target_bounds_and_missing_entries(self):
        matrix = similarity_matrix(np.eye(3), eta=0.1)
        with pytest.raises(ArgumentError):
            contribution_weights(matrix, target=1)
        with pytest.raises(ArgumentError):
            contribution_weights(matrix, target=4)
        with pytest.raises(StateError):
            contribution_weights(np.full((3, 3), np.nan), target=3)

    def test_sequence_cap_is_enforced(self):
        with pytest.raises(ArgumentError, match="cap"):
            similarity_matrix(np.ones((11, 2)), eta=0.1, max_steps=10)

    @given(steps=st.integers(1, 40), n_probes=st.integers(1, 5),
           eta=st.floats(0.01, 0.49), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_probe_traces_match_stacked_matrix(self, steps, n_probes, eta, seed):
        # the residual pass against the dense definitional recursion, per probe
        rng = np.random.default_rng(seed)
        bank = sample_bank(2.0, 32, 5, seed=6)
        train = feature_matrix(bank, rng.random((steps, 5)))
        probes = feature_matrix(bank, rng.random((n_probes, 5)))
        traces = probe_weight_traces(train, probes, eta)
        assert len(traces) == n_probes
        for probe, via_probe in zip(probes, traces):
            stacked = similarity_matrix(np.vstack([train, probe]), eta)
            via_matrix = contribution_weights(stacked, target=steps + 1)
            assert via_probe.target == via_matrix.target == steps + 1
            assert via_probe.weights == pytest.approx(via_matrix.weights, abs=1e-12)
            assert np.array_equal(via_probe.alpha_valid, via_matrix.alpha_valid)
            # the vectorised conformity factors against a scalar loop
            for i, (w, b) in enumerate(zip(via_probe.weights, via_probe.similarities)):
                gap = steps - i
                usable = gap >= 2 and b != 0.0 and w / b > 0.0
                assert via_probe.alpha_valid[i] == usable
                if usable:
                    assert via_probe.alpha[i] == pytest.approx(1.0 - (w / b) ** (1.0 / (gap - 1)),
                                                               rel=1e-12, abs=1e-15)
                else:
                    assert np.isnan(via_probe.alpha[i])

    @given(steps=st.sampled_from([1, 2, 63, 64, 65, 128, 129, 150]), n_probes=st.integers(1, 3),
           eta=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_blocked_pass_matches_dense_oracle(self, steps, n_probes, eta, seed):
        # runs shorter than one 64-step block, exactly one or two, and ragged ones
        rng = np.random.default_rng(seed)
        bank = sample_bank(1.0, 16, 4, seed=3)
        train = feature_matrix(bank, rng.random((steps, 4)))
        probes = feature_matrix(bank, rng.random((n_probes, 4)))
        for probe, trace in zip(probes, probe_weight_traces(train, probes, eta)):
            dense = contribution_weights(similarity_matrix(np.vstack([train, probe]), eta),
                                         target=steps + 1)
            assert np.abs(trace.weights - dense.weights).max() <= 1e-12

    @pytest.mark.parametrize("train, probes, eta", [
        (np.zeros((0, 4)), np.ones((1, 4)), 0.1),
        (np.ones((3, 4)), np.ones((1, 5)), 0.1),
        (np.ones(4), np.ones((1, 4)), 0.1),
        (np.ones((3, 4)), np.ones((1, 4)), 0.0),
    ])
    def test_probe_trace_input_validation(self, train, probes, eta):
        with pytest.raises(ArgumentError):
            probe_weight_traces(train, probes, eta)

    def test_probe_weights_reproduce_trained_predictions(self):
        # y[order] @ F toward a probe is the trained model's prediction for it
        rng = np.random.default_rng(14)
        ts = TrainingSet(rng.random((30, 5)), rng.standard_normal(30))
        model = SkgModel(bank=sample_bank(2.0, 64, 5, seed=4), eta=0.1)
        run = model.train(ts, epochs=3, seed=8)
        probes = rng.random((6, 5))
        ordered = feature_matrix(model.bank, ts.vectors)[run.order]
        traces = probe_weight_traces(ordered, feature_matrix(model.bank, probes), 0.1)
        via_weights = np.array([ts.values[run.order] @ trace.weights for trace in traces])
        direct = model.predict_batch(probes)
        assert np.abs(via_weights - direct).max() <= 1e-12 * np.abs(direct).max()


class TestPredictionOracle:
    """A prediction is the weighted sum of the values seen before it."""

    def test_identical_vector_unit_values(self):
        trace = traces_for_identical_vectors(eta=0.1, duration=3)
        assert np.ones(3) @ trace.weights == pytest.approx(0.488, abs=1e-12)

    def test_matches_trainer_predictions(self):
        # the trainer's in-run predictions are weighted sums of earlier values
        rng = np.random.default_rng(14)
        ts = TrainingSet(rng.random((9, 5)), rng.standard_normal(9))
        bank = sample_bank(2.0, 100, 5, seed=8)
        model = SkgModel(bank=bank, eta=0.1)
        run = model.train(ts, epochs=2, seed=5)
        ordered = feature_matrix(bank, ts.vectors)[run.order]
        matrix = similarity_matrix(ordered, 0.1)
        y_seq = ts.values[run.order]
        for t in range(2, run.duration + 1):
            oracle = y_seq[: t - 1] @ contribution_weights(matrix, t).weights
            assert abs(oracle - run.predictions[t - 1]) <= 1e-9 * max(1.0, abs(run.predictions[t - 1]))


class TestExpectedWeightSum:
    def test_single_step_is_b(self):
        assert expected_weight_sum(0.37, 1) == 0.37

    def test_matches_identical_vector_sum(self):
        assert expected_weight_sum(0.2, 3) == pytest.approx(0.488, abs=1e-15)

    def test_long_run_saturates_at_one(self):
        assert expected_weight_sum(0.2, 1000) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ArgumentError):
                expected_weight_sum(bad, 10)
        with pytest.raises(ArgumentError):
            expected_weight_sum(0.5, 0)

    def test_concentrates_near_one_on_planted_runs(self, planted_small_dataset):
        # T=99 runs near the selected variance: the weight sum hugs 1
        cfg = skg.RunConfig(eta=0.1, n_features=200, epochs=3, sample_fraction=0.4)
        report = skg.resolve_sigma_sq(planted_small_dataset, cfg, seed=0)
        sums = []
        for seed in range(20):
            prepared = skg.prepare(planted_small_dataset, cfg, seed)
            result = skg.fit_prepared(prepared, cfg, report.sigma_sq_ed, seed,
                                      probe_node=prepared.tested[0])
            assert result.trace.weights.size == 99
            sums.append(result.trace.weights.sum())
        assert abs(np.mean(sums) - 1.0) <= 0.1


class TestConformityAlpha:
    def test_identity_ratio_gives_zero(self):
        assert conformity_alpha(0.1, 0.1, gap=5) == 0.0

    def test_single_factor_inversion(self):
        assert conformity_alpha(0.1, 0.1 * (1 - 0.08), gap=2) == pytest.approx(0.08, rel=1e-12)

    def test_identical_vectors_give_twice_eta_at_every_gap(self):
        trace = traces_for_identical_vectors(eta=0.1, duration=6)
        for i in range(5):  # gaps 7-1=6 down to 2
            gap = trace.target - (i + 1)
            alpha = conformity_alpha(trace.similarities[i], trace.weights[i], gap)
            assert alpha == pytest.approx(0.2, abs=1e-9)
            assert trace.alpha[i] == pytest.approx(0.2, abs=1e-9)
            assert trace.alpha_valid[i]

    def test_nonpositive_ratio_is_reported(self):
        with pytest.raises(NumericError):
            conformity_alpha(0.1, -0.05, gap=3)
        with pytest.raises(ArgumentError):
            conformity_alpha(0.1, 0.05, gap=1)
        with pytest.raises(ArgumentError):
            conformity_alpha(0.0, 0.05, gap=3)

    def test_trace_flags_nonpositive_ratios_instead_of_clamping(self):
        # large earlier similarities push F[0] negative while B[0] stays positive
        matrix = np.zeros((4, 4))
        matrix[:3, :3][np.triu_indices(3, k=1)] = [0.5, 0.5, 0.5]
        matrix[:3, 3] = [0.02, 0.05, 0.1]
        trace = contribution_weights(matrix, target=4)
        assert trace.weights[0] < 0 < trace.similarities[0]
        assert not trace.alpha_valid[0] and np.isnan(trace.alpha[0])


class TestNoiseCeilings:
    def test_theoretical_reference_values(self):
        assert noise_up_theoretical(0.1, 200) == 0.01
        assert noise_up_theoretical(0.05, 888) == pytest.approx(0.002372894989381248, rel=1e-12)
        assert noise_up_theoretical(0.1, 10**8) < 2e-5

    def test_theoretical_argument_errors(self):
        with pytest.raises(ArgumentError):
            noise_up_theoretical(0.0, 10)
        with pytest.raises(ArgumentError):
            noise_up_theoretical(0.1, 0)

    def test_refined_is_absolute_minimum_weight(self):
        # the ceiling of one probe is |min F| of its trace, here a negative weight
        rng = np.random.default_rng(5)
        bank = sample_bank(0.5, 16, 3, seed=5)
        features = feature_matrix(bank, rng.random((12, 3)))
        (trace,) = probe_weight_traces(features[:11], features[11:], 0.3)
        assert trace.weights.min() < 0
        assert noise_up_from_run(features[:11], np.arange(11), features[11:], 0.3) == \
            abs(trace.weights.min())

    def test_refined_zero_minimum_is_degenerate_zero(self):
        # steps orthogonal to the probe carry no weight at all
        eye = np.eye(3)
        assert noise_up_from_run(eye[:2], np.array([0, 1, 0]), eye[2:], 0.1) == 0.0

    def test_refined_requires_a_trace(self):
        features = np.eye(3)
        with pytest.raises(StateError):
            noise_up_from_run(features, np.zeros(0, np.int64), features[:1], 0.1)
        with pytest.raises(StateError):
            noise_up_from_run(features, np.arange(3), np.zeros((0, 3)), 0.1)

    @given(steps=st.integers(1, 200), n_probes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_aggregation_takes_the_maximum(self, steps, n_probes, seed):
        # the streamed minimum over unordered features equals the largest
        # |min F| of the full traces of the ordered run, bit for bit
        rng = np.random.default_rng(seed)
        bank = sample_bank(2.0, 24, 5, seed=6)
        features = feature_matrix(bank, rng.random((30, 5)))
        probes = feature_matrix(bank, rng.random((n_probes, 5)))
        order = rng.integers(0, 30, steps)
        traces = probe_weight_traces(features[order], probes, 0.2)
        assert noise_up_from_run(features, order, probes, 0.2) == \
            max(trace.noise_up for trace in traces)


class TestPositiveAverage:
    def test_mean_similarity_is_strictly_inside_its_range(self, planted_small_dataset):
        ds = planted_small_dataset
        sampled, _ = skg.split_sample(ds.node_ids, 0.4, seed=1)
        vectors = skg.build_adjacency_vectors(ds.graph, sampled, sampled)
        bank = sample_bank(5.0, 200, vectors.shape[1], seed=1)
        z = feature_matrix(bank, vectors)
        b = 2 * 0.1 * (z @ z.T)
        pairs = b[np.triu_indices(len(sampled), k=1)]
        assert 0.0 < pairs.mean() < 2 * 0.1
