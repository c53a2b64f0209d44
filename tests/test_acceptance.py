"""Acceptance gate: the numerical contracts the library commits to.

Each criterion asserts at its stated tolerance and reports one PASS/FAIL
line in the terminal summary. Criteria 8 and the refined-noise half of 9
run against user-fetched benchmark datasets and skip (with instructions)
when those files are not installed; everything else is self-contained.
"""

import math

import numpy as np
import pytest

import skg
from skg.graph_data import TrainingSet
from skg.model import SkgModel
from skg.rff import feature_map, feature_matrix, kernel_exact, sample_bank
from skg.variance import sigma_ed
from skg.weights import (contribution_weights, noise_up_theoretical, probe_weight_traces,
                         similarity, similarity_matrix)

from conftest import require_data


def test_criterion_1_closed_form_boundaries(acceptance):
    """Boundary values for three benchmark datasets, within 10%."""
    cases = {
        "cora-con": (8.0, 0.05, 888, 1.05),
        "email-eu-core": (107.0, 0.05, 403, 15.29),
        "wikipedia-math-daily": (671.0, 0.03, 500, 95.67),
    }
    worst = 0.0
    for name, (d_sq_max, eta, n_features, expected) in cases.items():
        value = sigma_ed(d_sq_max, noise_up_theoretical(eta, n_features), eta)
        worst = max(worst, abs(value - expected) / expected)
    acceptance.check("1 closed-form boundaries", worst <= 0.10,
                     f"max relative deviation {worst:.3%} (tolerance 10%)")


def test_criterion_2_prediction_weight_equivalence(acceptance):
    """Trainer predictions equal weighted sums of earlier values, 50 instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 21))
        epochs = int(rng.integers(1, 4))
        vectors = rng.random((n, m)) * 2.0
        values = rng.standard_normal(n)
        bank = sample_bank(2.0, 100, m, seed=trial)
        model = SkgModel(bank=bank, eta=0.1)
        run = model.train(TrainingSet(vectors, values), epochs, seed=trial)
        ordered = feature_matrix(bank, vectors)[run.order]
        matrix = similarity_matrix(ordered, 0.1)
        y_seq = values[run.order]
        for t in range(2, run.duration + 1):
            oracle = float(y_seq[: t - 1] @ contribution_weights(matrix, t).weights)
            rel = abs(oracle - run.predictions[t - 1]) / max(1.0, abs(run.predictions[t - 1]))
            worst = max(worst, rel)
    acceptance.check("2 prediction/weight equivalence", worst <= 1e-9,
                     f"max relative deviation {worst:.2e} (tolerance 1e-9)")


def test_criterion_3_identical_vector_closed_form(acceptance):
    """Constant sequences give exactly geometric weights, to 1e-12."""
    vector = np.random.default_rng(8).random(6)
    worst_f, worst_sum = 0.0, 0.0
    for eta in (0.05, 0.1):
        for duration in (3, 10, 99):
            bank = sample_bank(1.5, 64, 6, seed=3)
            features = feature_matrix(bank, np.tile(vector, (duration, 1)))
            trace = probe_weight_traces(features, features[:1], eta)[0]
            steps = np.arange(1, duration + 1)
            closed = 2 * eta * (1 - 2 * eta) ** (duration - steps)
            worst_f = max(worst_f, float(np.abs(trace.weights - closed).max()))
            worst_sum = max(worst_sum,
                            abs(trace.weights.sum() - (1 - (1 - 2 * eta) ** duration)))
    acceptance.check("3 identical-vector closed form",
                     worst_f <= 1e-12 and worst_sum <= 1e-12,
                     f"max weight dev {worst_f:.2e}, max sum dev {worst_sum:.2e}")


def test_criterion_4_kernel_approximation(acceptance):
    """Feature inner products track the kernel within 0.03 for >=99% of pairs."""
    bank = sample_bank(2.0, 10000, 10, seed=21)
    rng = np.random.default_rng(22)
    hits = 0
    for _ in range(500):
        a1, a2 = rng.standard_normal(10), rng.standard_normal(10)
        approx = feature_map(bank, a1) @ feature_map(bank, a2)
        hits += abs(approx - kernel_exact(a1, a2, 2.0)) < 0.03
    acceptance.check("4 kernel approximation", hits / 500 >= 0.99,
                     f"{hits}/500 pairs within 0.03")


def test_criterion_5_cosine_moments(acceptance):
    """Gaussian cosine moments: mean within 3 s.e., variance within 5%."""
    ok = True
    details = []
    for i, var in enumerate((0.5, 1.0, 2.0)):
        rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(i,)))
        x = rng.standard_normal(1_000_000) * math.sqrt(var)
        cos = np.cos(x)
        mean_target = math.exp(-var / 2)
        var_target = 0.5 * (math.exp(-var) - 1) ** 2
        se = math.sqrt(var_target / cos.size)
        mean_dev = abs(float(cos.mean()) - mean_target) / se
        var_dev = abs(float(cos.var()) - var_target) / var_target
        ok &= mean_dev <= 3.0 and var_dev <= 0.05
        details.append(f"var={var}: {mean_dev:.2f} s.e., var dev {var_dev:.3%}")
    acceptance.check("5 cosine moments", ok, "; ".join(details))


def test_criterion_6_similarity_distribution(acceptance):
    """Similarities at distance 15 under variance 10 cluster around 0.094."""
    bank = sample_bank(10.0, 200, 20, seed=10)
    rng = np.random.default_rng(np.random.SeedSequence(10, spawn_key=(99,)))
    values = []
    for _ in range(21):
        direction = rng.standard_normal(20)
        direction *= math.sqrt(15.0) / np.linalg.norm(direction)
        base = rng.random(20)
        values.append(similarity(bank, base, base - direction, 0.1))
    values = np.array(values)
    ok = bool(np.all((0.08 < values) & (values < 0.11)) and 0.09 < values.mean() < 0.10)
    acceptance.check("6 similarity distribution", ok,
                     f"range ({values.min():.4f}, {values.max():.4f}), mean {values.mean():.4f}")


def test_criterion_7_four_range_curve(acceptance, planted_acceptance_dataset):
    """Sweep on the planted dataset: the selected variance sits at the dip."""
    config = skg.RunConfig(eta=0.1, n_features=200, epochs=3, sample_fraction=0.4)
    report = skg.resolve_sigma_sq(planted_acceptance_dataset, config, seed=100)
    grid = skg.default_grid(report, config, points=25)
    results = skg.sweep(planted_acceptance_dataset, grid, repeats=20, base_seed=100)
    means = {r.sigma_sq: r.gnmse_mean for r in results}
    at_ed = means[report.sigma_sq_ed]
    at_chaos = means[grid.sigma_sq_values[0]]
    at_flat = means[grid.sigma_sq_values[-1]]
    sigmas = np.array([r.sigma_sq for r in results])
    argmin_sigma = float(sigmas[np.argmin([r.gnmse_mean for r in results])])
    ratio = argmin_sigma / report.sigma_sq_ed
    ok = (at_ed < 0.5 * at_chaos) and (at_ed < 0.5 * at_flat) and (0.25 <= ratio <= 4.0)
    acceptance.check(
        "7 four-range curve", ok,
        f"gnmse ed={at_ed:.4f} chaos-edge={at_chaos:.4f} flat-edge={at_flat:.4f}, "
        f"argmin/ed={ratio:.2f}",
    )


def _load_temperature_jan(weighted=False):
    edge_file = "temperature_jan/weighted_edges.csv" if weighted \
        else "temperature_jan/unweighted_edges.csv"
    edges, values = require_data(edge_file, "temperature_jan/values.csv")
    return skg.load_dataset(edges, values, weighted=weighted, directed=False,
                            name="temperature-jan")


def test_criterion_8a_temperature_gnmse(acceptance):
    """Temperature-Jan at variance 5.87: mean error metric below 0.05."""
    try:
        dataset = _load_temperature_jan()
    except pytest.skip.Exception:
        acceptance.skip("8a temperature-jan gnmse", "dataset files not installed")
    config = skg.RunConfig(eta=0.1, n_features=200, epochs=3, sample_fraction=0.4)
    grid = skg.SweepGrid(sigma_sq_values=(5.87,), config=config)
    result = skg.sweep(dataset, grid, repeats=50, base_seed=0)[0]
    acceptance.check("8a temperature-jan gnmse", result.gnmse_mean < 0.05,
                     f"mean gnmse {result.gnmse_mean:.4f} over 50 repeats")


def test_criterion_8b_cora_gnmse_floor(acceptance):
    """Cora-Con: even the best variance leaves the error metric above 0.35."""
    try:
        edges, values = require_data("cora_con/edges.csv", "cora_con/values.csv")
    except pytest.skip.Exception:
        acceptance.skip("8b cora-con gnmse floor", "dataset files not installed")
    dataset = skg.load_dataset(edges, values, weighted=False, directed=True,
                               drop_isolated_nodes=True, name="cora-con")
    config = skg.RunConfig(eta=0.05, n_features=888, epochs=3, sample_fraction=0.4)
    report = skg.resolve_sigma_sq(dataset, config, seed=0)
    grid = skg.default_grid(report, config, points=12)
    results = skg.sweep(dataset, grid, repeats=5, base_seed=0)
    best = min(r.gnmse_mean for r in results)
    acceptance.check("8b cora-con gnmse floor", best > 0.35,
                     f"best mean gnmse {best:.4f} over the grid")


def test_criterion_9_noise_range_consistency(acceptance):
    """Theoretical ceiling is exact; the refined one reconciles the boundaries."""
    exact = noise_up_theoretical(0.1, 200) == 0.01
    acceptance.check("9a theoretical noise ceiling", exact,
                     f"noise_up(0.1, 200) = {noise_up_theoretical(0.1, 200)!r}")


def test_criterion_9b_temperature_refined_noise(acceptance):
    """Refined ceiling on Temperature-Jan lands in the reconciling interval."""
    try:
        dataset = _load_temperature_jan()
    except pytest.skip.Exception:
        acceptance.skip("9b temperature-jan refined noise", "dataset files not installed")
    config = skg.RunConfig(eta=0.1, n_features=200, refine_noise=True)
    estimates = [skg.resolve_sigma_sq(dataset, config, seed).noise_up for seed in (0, 1, 2)]
    estimate = float(np.mean(estimates))
    acceptance.check("9b temperature-jan refined noise", 0.012 <= estimate <= 0.03,
                     f"mean refined ceiling {estimate:.4f} over seeds 0-2")
