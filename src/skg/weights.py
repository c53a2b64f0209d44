"""Similarity measures and contribution weights of a training run.

The similarity of the nodes seen at times i < j is twice the learning
rate times the inner product of their feature vectors. Contribution
weights express any in-run prediction as a weighted sum of previously
seen nodal values; by definition they follow from the similarities by a
backward recursion:

    F[j-1, j] = B[j-1, j]
    F[i, j]   = B[i, j] - sum_{k=i+1}^{j-1} B[i, k] * F[k, j]

In residual form F[i, j] = 2*eta * z_i . r_i, with r_{j-1} = z_j and
r_{i-1} = r_i - F[i, j] * z_i: the SGD update run backward with zero
targets. The pass here runs it for P probes at once, b = 64 steps per
block from the last step back. With Z_b the block's features (in step
order) and R the residual entering the block, the block's weights solve

    (I + 2*eta * triu(Z_b Z_b^T, 1)) F_b = 2*eta * Z_b R

and R then drops by Z_b^T F_b, one rank-b update. That is O(T*D*P) time
and O(D*P) state; :func:`probe_weight_traces` gathers the blocks into
full traces, :func:`noise_up_from_run` keeps only a running per-probe
minimum in O(D*P + b*P) memory, and :func:`contribution_weights` is the
dense reference.

Conformity factors relate the two via F = B * (1 - alpha)^(gap - 1) and
the noise-range estimates bound which weights count as insignificant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, StateError
from .rff import RandomFeatureBank, feature_map

# Steps per block of the backward pass.
_BLOCK = 64


@dataclass(frozen=True)
class WeightTrace:
    """Contribution weights toward one target time.

    ``target`` is the 1-based time j; for 1 <= i < j, entry i-1 of
    ``weights`` holds F[i, j] and entry i-1 of ``similarities`` holds
    B[i, j]. ``alpha`` carries the conformity factors (NaN where
    undefined; ``alpha_valid`` flags the usable entries) and ``noise_up``
    is the run's own noise-range estimate, the absolute minimum weight.
    """

    target: int
    weights: np.ndarray
    similarities: np.ndarray
    alpha: np.ndarray
    alpha_valid: np.ndarray
    noise_up: float


def similarity(bank: RandomFeatureBank, a_i, a_j, eta: float) -> float:
    """Similarity of two adjacency vectors under one feature bank."""
    if not eta > 0:
        raise ArgumentError(f"eta must be positive, got {eta}")
    z_i = feature_map(bank, a_i)
    z_j = feature_map(bank, a_j)
    return float(2.0 * eta * (z_i @ z_j))


def similarity_approx(d_sq: float, sigma_sq: float, eta: float) -> float:
    """Large-bank limit of the similarity: 2*eta*exp(-d_sq / (2*sigma_sq))."""
    if d_sq < 0:
        raise ArgumentError(f"d_sq must be nonnegative, got {d_sq}")
    if not sigma_sq > 0:
        raise ArgumentError(f"sigma_sq must be positive, got {sigma_sq}")
    return 2.0 * eta * math.exp(-d_sq / (2.0 * sigma_sq))


def similarity_conditional_variance(d_sq: float, sigma_sq: float, eta: float,
                                    n_features: int) -> float:
    """Variance of the similarity around its large-bank limit at fixed distance.

    Decreasing in d_sq toward (2*eta)^2 / (2*n_features); exactly zero for
    coincident vectors.
    """
    if n_features < 1:
        raise ArgumentError(f"n_features must be at least 1, got {n_features}")
    if d_sq < 0:
        raise ArgumentError(f"d_sq must be nonnegative, got {d_sq}")
    if not sigma_sq > 0:
        raise ArgumentError(f"sigma_sq must be positive, got {sigma_sq}")
    return (2.0 * eta) ** 2 / (2.0 * n_features) * (math.expm1(-d_sq / sigma_sq)) ** 2


def similarity_matrix(features: np.ndarray, eta: float, max_steps: int = 5000) -> np.ndarray:
    """Similarities (T, T) of the ``features`` of a processing sequence, one row per step.

    Entry [p, q] is defined for 0-based times p < q. Sequences longer than ``max_steps`` are
    refused: the dense matrix is the honest O(T^2) cost of the exact recursion.
    """
    z = np.asarray(features, dtype=np.float64)
    if z.ndim != 2:
        raise ArgumentError(f"features must be 2-d, got shape {z.shape}")
    if not eta > 0:
        raise ArgumentError(f"eta must be positive, got {eta}")
    if z.shape[0] > max_steps:
        raise ArgumentError(f"sequence of {z.shape[0]} steps exceeds the cap of {max_steps}; "
                            "raise max_steps explicitly to accept the O(n^2) memory")
    return 2.0 * eta * (z @ z.T)


def _alphas(weights: np.ndarray, similarities: np.ndarray):
    """Conformity factors of weights of shape (t, ...) toward time t+1.

    Entries with gap < 2, zero similarity or a nonpositive ratio become NaN.
    """
    t = weights.shape[0]
    gap = (t - np.arange(t)).reshape((t,) + (1,) * (weights.ndim - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = weights / similarities
        valid = (gap >= 2) & (similarities != 0.0) & (alpha > 0.0)
        alpha **= 1.0 / (gap - 1)
    np.subtract(1.0, alpha, out=alpha)
    alpha[~valid] = np.nan
    return alpha, valid


def contribution_weights(matrix: np.ndarray, target: int) -> WeightTrace:
    """Exact contribution weights toward 1-based time ``target`` from the similarities of
    :func:`similarity_matrix`, by the definitional backward recursion, one step at a time."""
    if not 2 <= target <= matrix.shape[0]:
        raise ArgumentError(f"target must lie in [2, {matrix.shape[0]}], got {target}")
    if not np.all(np.isfinite(matrix[:target, :target][np.triu_indices(target, k=1)])):
        raise StateError("similarity matrix has missing entries below the target")
    t = target - 1
    column = matrix[:t, t]
    weights = np.zeros(t, dtype=np.float64)
    for i in range(t - 1, -1, -1):
        weights[i] = column[i] - matrix[i, i + 1:t] @ weights[i + 1:]
    alpha, valid = _alphas(weights, column)
    return WeightTrace(target=int(target), weights=weights, similarities=column.copy(),
                       alpha=alpha, alpha_valid=valid, noise_up=float(abs(weights.min())))


def _pass_inputs(features, probe_features, eta):
    z = np.asarray(features, dtype=np.float64)
    p = np.asarray(probe_features, dtype=np.float64)
    if z.ndim != 2 or p.ndim != 2 or z.shape[1] != p.shape[1] or z.shape[0] < 1:
        raise ArgumentError("need nonempty 2-d training features and 2-d probes of equal width")
    if not eta > 0:
        raise ArgumentError(f"eta must be positive, got {eta}")
    return z, p


def _backward_blocks(features: np.ndarray, order: np.ndarray, probes: np.ndarray, eta: float):
    """Yield ``(start, F)`` per block of steps, last block first (see the module docstring).

    Step t of the run visits ``features[order[t]]``; F has one row per step
    ``start, start + 1, ...`` of the block and one column per probe row.
    """
    gain = 2.0 * eta
    residual = probes.T.copy()
    for stop in range(order.size, 0, -_BLOCK):
        start = max(0, stop - _BLOCK)
        z = features[order[start:stop]]
        system = np.triu(gain * (z @ z.T), 1)
        np.fill_diagonal(system, 1.0)
        weights = np.linalg.solve(system, gain * (z @ residual))
        residual -= z.T @ weights
        yield start, weights


def probe_weight_traces(train_features: np.ndarray, probe_features: np.ndarray,
                        eta: float) -> list[WeightTrace]:
    """Weight traces for held-out probes appended after a training sequence.

    ``train_features`` holds the T training steps in processing order;
    each probe row is treated as the node at time T+1. All probes share
    one blocked backward pass.
    """
    z, p = _pass_inputs(train_features, probe_features, eta)
    steps = z.shape[0]
    weights = np.empty((steps, p.shape[0]), dtype=np.float64)
    for start, block in _backward_blocks(z, np.arange(steps), p, eta):
        weights[start:start + block.shape[0]] = block
    similarities = 2.0 * eta * (z @ p.T)
    alpha, valid = _alphas(weights, similarities)
    return [WeightTrace(target=steps + 1, weights=weights[:, k], similarities=similarities[:, k],
                        alpha=alpha[:, k], alpha_valid=valid[:, k],
                        noise_up=float(abs(weights[:, k].min())))
            for k in range(p.shape[0])]


def noise_up_from_run(features: np.ndarray, order, probe_features: np.ndarray,
                      eta: float) -> float:
    """Noise ceiling measured from a run: the largest |min weight| over the probes.

    Step t of the run visits ``features[order[t]]``; each probe row is the
    node after the last step. Equals the maximum of ``noise_up`` over
    :func:`probe_weight_traces` of the ordered features, bit for bit, but
    keeps only a running per-probe minimum. Zero is a degenerate outcome
    (no negative weight); callers fall back to the theoretical ceiling.
    """
    z, p = _pass_inputs(features, probe_features, eta)
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1 or order.size == 0 or p.shape[0] == 0:
        raise StateError("need at least one run step and one probe to measure the noise ceiling")
    lowest = np.full(p.shape[0], np.inf)
    for _, block in _backward_blocks(z, order, p, eta):
        np.minimum(lowest, block.min(axis=0), out=lowest)
    return float(np.abs(lowest).max())


def expected_weight_sum(b: float, duration: int) -> float:
    """Expected total weight toward the post-training target: 1 - (1-b)^T."""
    if not 0.0 < b < 1.0:
        raise ArgumentError(f"average similarity must lie in (0, 1), got {b}")
    if duration < 1:
        raise ArgumentError(f"duration must be at least 1, got {duration}")
    return 1.0 - (1.0 - b) ** duration


def conformity_alpha(similarity_value: float, weight_value: float, gap: int) -> float:
    """Invert the conformity relation F = B*(1-alpha)^(gap-1) for alpha.

    Raises :class:`NumericError` when the weight/similarity ratio is not
    positive (reported, never silently clamped).
    """
    if gap < 2:
        raise ArgumentError(f"gap must be at least 2, got {gap}")
    if not similarity_value > 0:
        raise ArgumentError(f"similarity must be positive, got {similarity_value}")
    ratio = weight_value / similarity_value
    if ratio <= 0.0:
        raise NumericError(f"weight/similarity ratio must be positive, got {ratio}")
    return 1.0 - ratio ** (1.0 / (gap - 1))


def noise_up_theoretical(eta: float, n_features: int) -> float:
    """Ceiling of the noise range from the worst-case similarity deviation.

    This is the standard deviation of the similarity around zero for far
    apart vectors: 2*eta/sqrt(2*n_features).
    """
    if not eta > 0:
        raise ArgumentError(f"eta must be positive, got {eta}")
    if n_features < 1:
        raise ArgumentError(f"n_features must be at least 1, got {n_features}")
    return 2.0 * eta / math.sqrt(2.0 * n_features)
