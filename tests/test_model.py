"""Sequential trainer: update rule, traces, reproducibility, serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skg.model
from skg.errors import ArgumentError, DataError, NumericError
from skg.graph_data import TrainingSet
from skg.model import SkgModel, load_model, save_model, sgd_pass, write_training_trace_csv
from skg.rff import feature_matrix, sample_bank


def make_model(eta=0.1, n_features=32, input_dim=4, seed=0, sigma_sq=2.0):
    return SkgModel(bank=sample_bank(sigma_sq, n_features, input_dim, seed), eta=eta)


def one_pair(vector, value):
    return TrainingSet(np.asarray(vector, dtype=np.float64)[None], np.array([float(value)]))


class TestPredict:
    def test_zero_coefficients_predict_zero(self):
        model = make_model()
        assert model.predict_batch(np.ones((1, 4)))[0] == 0.0
        assert np.all(model.predict_batch(np.random.default_rng(0).random((5, 4))) == 0.0)

    def test_state_after_one_step_recovers_scaled_value(self):
        # after one step from zero, predicting the same vector gives 2*eta*y
        model = make_model(eta=0.1)
        a, y = np.array([0.5, 1.0, -2.0, 0.0]), 3.0
        trace = model.train(one_pair(a, y), epochs=1, seed=0)
        assert trace.errors[0] == y
        assert model.predict_batch(a[None])[0] == pytest.approx(2 * 0.1 * y, rel=1e-12)


class TestTrainStep:
    def test_matched_value_is_a_no_op(self):
        model = make_model()
        a = np.array([1.0, 2.0, 3.0, 4.0])
        model.train(one_pair(a, 1.0), epochs=1, seed=0)
        before = model.theta.copy()
        # the step's own prediction: the same feature row and the same dot product
        matched = feature_matrix(model.bank, a[None])[0] @ model.theta
        trace = model.train(one_pair(a, matched), epochs=1, seed=0)
        assert trace.errors[0] == 0.0
        assert np.array_equal(model.theta, before)

    def test_two_steps_on_same_pair(self):
        # hand recursion with unit-norm features: predictions 0 then 2*eta*1
        model = make_model(eta=0.1)
        a = np.array([0.3, -0.7, 0.2, 1.1])
        assert model.predict_batch(a[None])[0] == 0.0
        trace = model.train(one_pair(a, 1.0), epochs=2, seed=0)
        assert trace.predictions[0] == 0.0
        assert trace.predictions[1] == pytest.approx(0.2, rel=1e-12)
        # each step scales the residual by 1 - 2*eta
        assert model.predict_batch(a[None])[0] == pytest.approx(1 - 0.8 ** 2, rel=1e-12)

    @given(eta=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_consistent_targets_never_move_away(self, eta, seed):
        # with unit-norm features one step maps the error e to (I - 2*eta*z z^T) e,
        # eigenvalues 1 and 1 - 2*eta: a relaxed Kaczmarz step (Strohmer & Vershynin
        # 2009) that cannot grow the error for eta in (0, 1), up to rounding
        rng = np.random.default_rng(seed)
        model = make_model(eta=eta, n_features=16, seed=seed % 97)
        vectors = rng.random((12, 4))
        target = rng.standard_normal(32)
        features = feature_matrix(model.bank, vectors)
        values = features @ target
        slack = 1e-13 * np.linalg.norm(target)
        error = np.linalg.norm(model.theta - target)
        for idx in rng.integers(0, 12, 200):
            sgd_pass(features[:, None], np.array([idx]), values, model.theta[None], model.eta)
            moved = np.linalg.norm(model.theta - target)
            assert moved <= error + slack
            error = moved

    def test_non_finite_rejected(self):
        model = make_model()
        with pytest.raises(NumericError):
            model.train(one_pair(np.ones(4), float("nan")), epochs=1, seed=0)
        assert np.all(model.theta == 0.0)


class TestTrain:
    def test_duration_is_epochs_times_n(self):
        rng = np.random.default_rng(5)
        ts = TrainingSet(rng.random((33, 4)), rng.standard_normal(33))
        trace = make_model().train(ts, epochs=3, seed=1)
        assert trace.duration == 99

    def test_single_pair_single_epoch(self):
        ts = TrainingSet(np.ones((1, 4)), np.array([2.5]))
        trace = make_model().train(ts, epochs=1, seed=0)
        assert trace.duration == 1
        assert trace.errors[0] == 2.5 and trace.predictions[0] == 0.0

    def test_same_seed_same_trace(self):
        rng = np.random.default_rng(2)
        ts = TrainingSet(rng.random((6, 4)), rng.standard_normal(6))
        t1 = make_model().train(ts, epochs=2, seed=9)
        t2 = make_model().train(ts, epochs=2, seed=9)
        assert np.array_equal(t1.order, t2.order)
        assert np.array_equal(t1.predictions, t2.predictions)
        assert np.array_equal(t1.errors, t2.errors)

    def test_order_stream_independent_of_bank_size(self):
        # node order must not move when only the bank size changes
        rng = np.random.default_rng(2)
        ts = TrainingSet(rng.random((6, 4)), rng.standard_normal(6))
        small = make_model(n_features=8).train(ts, epochs=2, seed=9)
        large = make_model(n_features=64).train(ts, epochs=2, seed=9)
        assert np.array_equal(small.order, large.order)

    def test_each_epoch_visits_every_node_once(self):
        rng = np.random.default_rng(3)
        ts = TrainingSet(rng.random((5, 4)), rng.standard_normal(5))
        trace = make_model().train(ts, epochs=4, seed=11)
        for e in range(4):
            assert sorted(trace.order[e * 5:(e + 1) * 5]) == list(range(5))

    def test_shuffle_marginals_are_uniform(self):
        # every node should occupy every slot about a quarter of the time
        ts = TrainingSet(np.eye(4), np.zeros(4))
        bank = sample_bank(1.0, 4, 4, seed=0)
        counts = np.zeros((4, 4))
        for seed in range(2000):
            trace = SkgModel(bank=bank, eta=0.1).train(ts, epochs=1, seed=seed)
            for position, idx in enumerate(trace.order):
                counts[idx, position] += 1
        assert np.all(np.abs(counts / 2000 - 0.25) <= 0.03)

    def test_coefficients_reconstruct_from_errors(self):
        # theta after T steps equals 2*eta * sum of error-weighted features
        rng = np.random.default_rng(4)
        ts = TrainingSet(rng.random((8, 4)), rng.standard_normal(8))
        model = make_model(eta=0.05)
        trace = model.train(ts, epochs=3, seed=13)
        ordered = feature_matrix(model.bank, ts.vectors)[trace.order]
        rebuilt = 2 * 0.05 * (trace.errors @ ordered)
        rel = np.abs(rebuilt - model.theta).max() / np.abs(model.theta).max()
        assert rel < 1e-10

    def test_matches_reference_loop_bitwise(self):
        rng = np.random.default_rng(7)
        ts = TrainingSet(rng.random((40, 4)), rng.standard_normal(40))
        model = make_model(eta=0.1, n_features=64)
        trace = model.train(ts, epochs=3, seed=5)
        features = feature_matrix(model.bank, ts.vectors)
        theta = np.zeros_like(model.theta)
        predictions, errors = [], []
        for idx in trace.order:
            z = features[idx]
            pred = float(theta @ z)
            err = ts.values[idx] - pred
            theta += (2.0 * 0.1 * err) * z
            predictions.append(pred)
            errors.append(err)
        assert np.array_equal(model.theta, theta)
        assert np.array_equal(trace.predictions, predictions)
        assert np.array_equal(trace.errors, errors)

    @given(rows=st.integers(1, 40), width=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    @example(rows=26, width=400, seed=0)
    @example(rows=1, width=400, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_batched_row_dot_equals_the_1d_dot(self, rows, width, seed):
        # the lockstep sweep is bit-identical to single runs only while numpy evaluates
        # each (1, D) @ (D, 1) block of a batched matmul as the 1-D z @ theta dot
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((rows, width))
        state = rng.standard_normal((rows, width))
        batched = np.matmul(z[:, None, :], state[:, :, None])[:, 0, 0]
        assert np.array_equal(batched, [z[s] @ state[s] for s in range(rows)])

    @given(rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_stacked_pass_equals_one_pass_per_row(self, rows, seed):
        # state (S, D) over features (n, S, D) trains row s as the one-row form on features[:, s]
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((9, rows, 16))
        targets = rng.standard_normal(9)
        order = rng.integers(0, 9, 30)
        state = np.zeros((rows, 16))
        predictions = sgd_pass(features, order, targets, state, 0.1)
        assert predictions.shape == (30, rows)
        for s in range(rows):
            theta = np.zeros(16)
            single = sgd_pass(np.ascontiguousarray(features[:, s])[:, None], order, targets,
                              theta[None], 0.1)
            assert np.array_equal(predictions[:, s], single[:, 0])
            assert np.array_equal(state[s], theta)

    def test_epoch_and_dimension_validation(self):
        ts = TrainingSet(np.ones((2, 4)), np.ones(2))
        with pytest.raises(ArgumentError):
            make_model().train(ts, epochs=0, seed=0)
        with pytest.raises(ArgumentError):
            make_model(input_dim=5).train(ts, epochs=1, seed=0)


class TestSerialization:
    def test_round_trip_preserves_predictions_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        ts = TrainingSet(rng.random((6, 4)), rng.standard_normal(6))
        model = make_model(eta=0.1, seed=21)
        model.train(ts, epochs=2, seed=3)
        path = tmp_path / "model.json"
        save_model(path, model, referencing=["a", "b", "c", "d"], value_scale=2.0)
        loaded, meta = load_model(path)
        assert meta["referencing"] == ["a", "b", "c", "d"]
        assert meta["value_scale"] == 2.0
        probe = rng.random((3, 4))
        assert np.array_equal(loaded.predict_batch(probe), model.predict_batch(probe))

    @pytest.mark.parametrize("key, value", [
        ("bank_seed", True), ("bank_seed", 7.9), ("bank_seed", "7"), ("n_features", 32.0),
        ("input_dim", 80.6), ("input_dim", 10**9), ("n_features", 10**8)])
    def test_bad_sizes_are_refused_before_the_bank_is_drawn(self, tmp_path, key, value):
        # a non-integer is named by its key; a size that theta or the referencing list
        # contradicts is refused before the bank's n_features * input_dim floats
        path = tmp_path / "model.json"
        save_model(path, make_model(), referencing=["a", "b", "c", "d"], value_scale=1.0)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as refused:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(refused.value) and peak < 1 << 20, peak
        assert (key in str(refused.value)) == (type(value) is not int), str(refused.value)

    @pytest.mark.parametrize("key, input_dim, message", [
        ("referencing", 10**9, "model lacks a referencing node list"),
        ("value_scale", 4, "model lacks the key 'value_scale'")])
    def test_a_model_without_its_list_or_scale_is_refused_before_the_bank_is_drawn(
            self, tmp_path, monkeypatch, key, input_dim, message):
        # without the list, input_dim has nothing to be checked against: a drawn
        # 10**9-column bank raised MemoryError; without the scale the file loaded
        path = tmp_path / "model.json"
        save_model(path, make_model(), referencing=["a", "b", "c", "d"], value_scale=1.0)
        payload = json.loads(path.read_text())
        del payload[key]
        payload["input_dim"] = input_dim
        path.write_text(json.dumps(payload))
        drawn = []
        monkeypatch.setattr(skg.model, "sample_bank", lambda *args: drawn.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as refused:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"{path}: {message}" and not drawn and peak < 1 << 20

    def test_trace_csv_layout(self, tmp_path):
        ts = TrainingSet(np.ones((2, 4)), np.array([1.0, -1.0]))
        model = make_model()
        trace = model.train(ts, epochs=2, seed=0)
        path = tmp_path / "trace.csv"
        write_training_trace_csv(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,node_index,prediction,error"
        assert len(lines) == 1 + trace.duration
        assert lines[1].startswith("1,")
