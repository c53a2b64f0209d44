"""Closed-form boundaries, the selection pipeline, and its report."""

import dataclasses
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skg
from skg.errors import ArgumentError, DegenerateInputError, NumericError, StateError
from skg.graph_data import TrainingSet, build_adjacency_vectors
from skg.harness import RunConfig, prepare, select_prepared
from skg.model import SkgModel
from skg.rff import feature_matrix, sample_bank
from skg.variance import SELECTION_REPORT_SCHEMA, select, sigma_ce, sigma_da, sigma_ed
from skg.weights import noise_up_theoretical, probe_weight_traces


class TestSigmaEd:
    def test_exponent_arranged_to_one(self):
        # noise ceiling 2*eta*e^{-1/2} makes the boundary equal the distance
        eta = 0.1
        assert sigma_ed(1.0, 2 * eta * math.exp(-0.5), eta) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_distance(self):
        noise = noise_up_theoretical(0.1, 200)
        values = [sigma_ed(d, noise, 0.1) for d in (1.0, 5.0, 30.0, 200.0)]
        assert values == sorted(values)

    def test_domain_errors(self):
        with pytest.raises(NumericError):
            sigma_ed(10.0, 0.2, 0.1)  # noise at the ceiling flips the logarithm
        with pytest.raises(NumericError):
            sigma_ed(10.0, 0.0, 0.1)
        with pytest.raises(ArgumentError):
            sigma_ed(0.0, 0.01, 0.1)

    def test_reference_evaluations(self):
        cora = sigma_ed(8.0, noise_up_theoretical(0.05, 888), 0.05)
        assert cora == pytest.approx(1.069215830667661, rel=1e-12)
        wiki = sigma_ed(671.0, noise_up_theoretical(0.03, 500), 0.03)
        assert wiki == pytest.approx(97.13719911902733, rel=1e-12)
        temp_weighted = sigma_ed(12.49, noise_up_theoretical(0.1, 200), 0.1)
        assert temp_weighted == pytest.approx(2.08, abs=0.01)


class TestSigmaCe:
    def test_collapses_to_ed_at_equal_distances(self):
        noise = noise_up_theoretical(0.1, 200)
        assert sigma_ce(27.0, noise, 0.1) == sigma_ed(27.0, noise, 0.1)

    def test_exponent_arranged_to_one(self):
        eta = 0.1
        assert sigma_ce(1.0, 2 * eta * math.exp(-0.5), eta) == pytest.approx(1.0, rel=1e-12)

    def test_refined_noise_reproduces_low_boundary(self):
        # back-solved refined ceiling of 0.0206 puts the boundary at 0.22
        assert sigma_ce(1.0, 0.0206, 0.1) == pytest.approx(0.22, abs=0.003)

    def test_absent_minimum_is_a_state_error(self):
        with pytest.raises(StateError):
            sigma_ce(None, 0.01, 0.1)


class TestSigmaDa:
    def test_exact_and_first_order_forms(self):
        exact = sigma_da(27.0, 0.1)
        assert exact == pytest.approx(128.13149134390372, rel=1e-12)
        assert sigma_da(27.0, 0.1, first_order=True) == pytest.approx(135.0, rel=1e-12)

    def test_closeness_inverting_to_135(self):
        closeness = 1.0 - math.exp(-0.1)  # about 0.0952
        assert sigma_da(27.0, closeness) == pytest.approx(135.0, rel=1e-9)

    def test_diverges_as_closeness_vanishes(self):
        assert sigma_da(27.0, 1e-9) > 1e10

    def test_closeness_bounds(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ArgumentError):
                sigma_da(27.0, bad)


class TestSelect:
    def make_vectors(self, seed=0, n=20, m=8):
        rng = np.random.default_rng(seed)
        return (rng.random((n, m)) < 0.4).astype(float)

    def test_report_fields_and_ordering(self):
        vectors = self.make_vectors()
        report = select(vectors, eta=0.1, n_features=200)
        assert report.noise_up == noise_up_theoretical(0.1, 200)
        assert report.noise_up_source == "theoretical"
        assert 0 < report.sigma_sq_ce <= report.sigma_sq_ed <= report.sigma_sq_da

    def test_report_dict_validates_against_schema(self):
        report = select(self.make_vectors(), eta=0.1, n_features=200)
        jsonschema.validate(report.to_dict(), SELECTION_REPORT_SCHEMA)

    def test_identical_vectors_are_degenerate(self):
        with pytest.raises(DegenerateInputError):
            select(np.ones((5, 3)), eta=0.1, n_features=100)

    def test_refined_source_and_range(self, planted_small_dataset):
        # one refining run composed by hand: train at the closed-form variance,
        # probe the tested nodes (the sampled ones when none is tested)
        for fraction in (0.4, 1.0):
            config = RunConfig(n_features=100, sample_fraction=fraction, refine_noise=True)
            prepared = prepare(planted_small_dataset, config, seed=2)
            vectors, probes = _dense_split(planted_small_dataset, prepared)
            plain = select(vectors, eta=0.1, n_features=100)
            bank = sample_bank(plain.sigma_sq_ed, 100, vectors.shape[1], seed=2)
            run = SkgModel(bank=bank, eta=0.1).train(
                TrainingSet(vectors, prepared.train_values), epochs=3, seed=2)
            probes = probes if prepared.tested else vectors
            traces = probe_weight_traces(feature_matrix(bank, vectors)[run.order],
                                         feature_matrix(bank, probes), 0.1)
            # the largest |min F| over the probes, from the full traces
            noise = max(abs(trace.weights.min()) for trace in traces)
            expected = dataclasses.replace(
                plain, noise_up=noise, noise_up_source="refined",
                sigma_sq_ed=sigma_ed(plain.d_sq_max, noise, 0.1),
                sigma_sq_ce=sigma_ce(plain.d_sq_min_nonzero, noise, 0.1))
            report = select_prepared(prepared, config, seed=2)
            assert report == expected
            assert report.noise_up_source == "refined"
            assert 0.0 < report.noise_up < 0.2
            assert report.sigma_sq_ed > 0

    def test_refined_ceiling_domain(self):
        # a zero ceiling keeps the theoretical report; one at 2*eta means the run diverged
        report = select(self.make_vectors(), eta=0.1, n_features=200)
        assert report.refined(0.0) is report
        with pytest.raises(NumericError, match="diverged"):
            report.refined(0.2)
        assert report.refined(0.005).sigma_sq_ed < report.sigma_sq_ed

    def test_first_order_flag_propagates(self):
        report = select(self.make_vectors(), eta=0.1, n_features=200, first_order_da=True)
        assert report.da_first_order
        assert report.to_dict()["sigma_sq_da"]["source"] == "first-order"
        assert report.sigma_sq_da == pytest.approx(report.d_sq_max / 0.2, rel=1e-12)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_boundaries_are_scale_covariant(self, scale):
        vectors = self.make_vectors(seed=9)
        base = select(vectors, eta=0.1, n_features=200)
        scaled = select(scale * vectors, eta=0.1, n_features=200)
        assert scaled.sigma_sq_ed == pytest.approx(scale**2 * base.sigma_sq_ed, rel=1e-9)
        assert scaled.sigma_sq_ce == pytest.approx(scale**2 * base.sigma_sq_ce, rel=1e-9)
        assert scaled.sigma_sq_da == pytest.approx(scale**2 * base.sigma_sq_da, rel=1e-9)

    @given(
        d_min=st.floats(0.1, 10.0),
        spread=st.floats(1.0, 50.0),
        n_features=st.integers(50, 2000),
        eta=st.floats(0.01, 0.3),
    )
    @settings(max_examples=50)
    def test_ce_never_exceeds_ed(self, d_min, spread, n_features, eta):
        noise = noise_up_theoretical(eta, n_features)
        assert sigma_ce(d_min, noise, eta) <= sigma_ed(d_min * spread, noise, eta) * (1 + 1e-12)

    def test_bank_size_sensitivity_is_logarithmic(self):
        # boundary ~ 1/ln(2*n_features): each doubling moves it by ~10%,
        # the 200 -> 800 step by exactly 1 - ln(400)/ln(1600) = 18.8%
        eta, d_sq = 0.1, 27.0
        ed = {d: sigma_ed(d_sq, noise_up_theoretical(eta, d), eta) for d in (200, 400, 800)}
        assert abs(1 - ed[400] / ed[200]) < 0.15
        assert abs(1 - ed[800] / ed[400]) < 0.15
        total = 1 - ed[800] / ed[200]
        assert total == pytest.approx(1 - math.log(400) / math.log(1600), rel=1e-12)
        assert total < 0.20

    def test_refinement_is_nearly_idempotent(self, planted_small_dataset):
        # a second refining pass moves the boundary by well under 20% on average
        config = RunConfig(eta=0.1, n_features=200, refine_noise=True)
        changes = []
        for seed in range(10):
            prepared = prepare(planted_small_dataset, config, seed)
            first = select_prepared(prepared, config, seed)
            vectors, probes = _dense_split(planted_small_dataset, prepared)
            second = _refine_once_more(first, vectors, prepared.train_values, probes, seed)
            changes.append(abs(second - first.sigma_sq_ed) / first.sigma_sq_ed)
        assert np.mean(changes) < 0.20


def _dense_split(dataset, prepared):
    """The prepared split's sampled and tested adjacency vectors, made dense."""
    graph, sampled = dataset.graph, prepared.sampled
    return (build_adjacency_vectors(graph, sampled, sampled),
            build_adjacency_vectors(graph, prepared.tested, sampled))


def _refine_once_more(report, vectors, values, probes, seed):
    """One extra noise-refinement pass starting from an already refined boundary."""
    bank = sample_bank(report.sigma_sq_ed, report.n_features, vectors.shape[1], seed)
    model = SkgModel(bank=bank, eta=report.eta)
    run = model.train(TrainingSet(vectors, values), epochs=3, seed=seed)
    ordered = feature_matrix(bank, vectors)[run.order]
    traces = probe_weight_traces(ordered, feature_matrix(bank, probes), report.eta)
    noise = max(abs(trace.weights.min()) for trace in traces)
    return sigma_ed(report.d_sq_max, noise, report.eta)
