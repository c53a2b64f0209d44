"""Random Fourier features for the Gaussian kernel.

A bank of frequency rows drawn from N(0, I/sigma_sq) defines the sin/cos
feature map; inner products of mapped vectors approximate the Gaussian
kernel exp(-||a1 - a2||^2 / (2 sigma_sq)) once the bank is large enough.
All arithmetic is float64: downstream weight recursions are sensitive to
cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import ArgumentError


@dataclass(frozen=True)
class RandomFeatureBank:
    """Frozen frequency matrix defining one feature map.

    ``frequencies`` has shape (n_features, input_dim) with entries i.i.d.
    Gaussian of mean 0 and variance 1/sigma_sq. Banks are immutable after
    creation; the same bank must serve both training and prediction.
    """

    frequencies: np.ndarray
    sigma_sq: float
    seed: int

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if freqs.ndim != 2:
            raise ArgumentError(f"frequencies must be 2-d, got shape {freqs.shape}")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]


def sample_bank(sigma_sq: float, n_features: int, input_dim: int, seed: int) -> RandomFeatureBank:
    """Draw a frequency bank for a Gaussian kernel of variance ``sigma_sq``.

    Entries are i.i.d. N(0, 1/sigma_sq), deterministic per seed (BANK
    stream, so bank sampling never shares a stream with order shuffling).
    """
    if not sigma_sq > 0:
        raise ArgumentError(f"sigma_sq must be positive, got {sigma_sq}")
    if n_features < 1 or input_dim < 1:
        raise ArgumentError("n_features and input_dim must be at least 1")
    rng = streams.stream(seed, streams.BANK)
    frequencies = rng.standard_normal((n_features, input_dim)) / math.sqrt(sigma_sq)
    return RandomFeatureBank(frequencies=frequencies, sigma_sq=float(sigma_sq), seed=int(seed))


def feature_map(bank: RandomFeatureBank, vector) -> np.ndarray:
    """Map one adjacency vector to its 2*n_features sin/cos feature vector.

    Layout is the sin block followed by the cos block, scaled by
    1/sqrt(n_features); the result has unit squared norm up to rounding.
    """
    a = np.asarray(vector, dtype=np.float64)
    if a.shape != (bank.input_dim,):
        raise ArgumentError(f"expected a vector of length {bank.input_dim}, got shape {a.shape}")
    phase = bank.frequencies @ a
    return np.concatenate([np.sin(phase), np.cos(phase)]) / math.sqrt(bank.n_features)


def feature_matrix(bank: RandomFeatureBank, vectors) -> np.ndarray:
    """Feature vectors for the rows of ``vectors``, shape (n, 2*n_features)."""
    a = np.asarray(vectors, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != bank.input_dim:
        raise ArgumentError(f"expected (n, {bank.input_dim}) vectors, got shape {a.shape}")
    phase = a @ bank.frequencies.T
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=1) / math.sqrt(bank.n_features)


def kernel_exact(a1, a2, sigma_sq: float) -> float:
    """Gaussian kernel value exp(-||a1 - a2||^2 / (2 sigma_sq))."""
    if not sigma_sq > 0:
        raise ArgumentError(f"sigma_sq must be positive, got {sigma_sq}")
    x1 = np.asarray(a1, dtype=np.float64)
    x2 = np.asarray(a2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ArgumentError(f"vector shapes differ: {x1.shape} vs {x2.shape}")
    diff = x1 - x2
    return float(np.exp(-float(diff @ diff) / (2.0 * sigma_sq)))
