"""Random Fourier features for the Gaussian kernel.

A bank of frequency rows drawn from N(0, I/sigma_sq) defines the sin/cos
feature map; all variances of one seed scale the same standard normal
draw. Inner products of mapped vectors approximate the Gaussian
kernel exp(-||a1 - a2||^2 / (2 sigma_sq)) once the bank is large enough.
All arithmetic is float64: downstream weight recursions are sensitive to
cancellation.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import ArgumentError, NumericError
from .graph_data import _Nonzeros


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

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]


def sample_banks(sigma_sq_values, n_features: int, input_dim: int, seed: int) -> list:
    """Frequency banks of one seed for each Gaussian kernel variance in ``sigma_sq_values``.

    The seed's BANK stream (never shared with order shuffling) is drawn
    once as a standard normal matrix G; the bank at variance sigma_sq is
    G / sqrt(sigma_sq), i.i.d. N(0, 1/sigma_sq), and does not depend on
    which other variances are requested.
    """
    values = [float(v) for v in sigma_sq_values]
    for sigma_sq in values:
        if not (sigma_sq > 0 and math.isfinite(sigma_sq)):
            raise ArgumentError(f"sigma_sq must be positive and finite, got {sigma_sq}")
    if n_features < 1 or input_dim < 1:
        raise ArgumentError("n_features and input_dim must be at least 1")
    draw = streams.stream(seed, streams.BANK).standard_normal((n_features, input_dim))
    banks = []
    for i, sigma_sq in enumerate(values):
        # the last bank takes the draw's own buffer, so one bank costs one array
        out = draw if i == len(values) - 1 else None
        banks.append(RandomFeatureBank(frequencies=np.divide(draw, math.sqrt(sigma_sq), out=out),
                                       sigma_sq=sigma_sq, seed=int(seed)))
    return banks


def sample_bank(sigma_sq: float, n_features: int, input_dim: int, seed: int) -> RandomFeatureBank:
    """The frequency bank of one variance; see :func:`sample_banks`."""
    return sample_banks((sigma_sq,), n_features, input_dim, seed)[0]


def feature_map(bank: RandomFeatureBank, vector) -> np.ndarray:
    """The feature vector of one adjacency vector: one row of :func:`feature_matrix`."""
    return feature_matrix(bank, np.asarray(vector, dtype=np.float64)[None])[0]


def feature_matrix(bank: RandomFeatureBank, vectors) -> np.ndarray:
    """Feature vectors for the rows of ``vectors``, shape (n, 2*n_features).

    ``vectors`` is a nonzero record (graph_data._Nonzeros) or a 2-d array, read as the record
    of its entries ``!= 0``, so a -0.0 entry reads as +0.0. Each row is the sin block followed
    by the cos block, scaled by 1/sqrt(n_features); it has unit squared norm up to rounding.
    """
    record = _Nonzeros.of(vectors)
    if record.shape[1] != bank.input_dim:
        raise ArgumentError(f"expected (n, {bank.input_dim}) vectors, got shape {record.shape}")
    out = np.empty((record.shape[0], 1, 2 * bank.n_features))
    return _fill_features((bank,), record, out)[:, 0]


def _fill_features(banks, record: _Nonzeros, out: np.ndarray) -> np.ndarray:
    """The features of ``record``'s rows under each of ``banks`` (of one size) in ``out``
    (n, S, 2*n_features), from blocks of 256 to 511 rows (all, when fewer), each made dense once
    for all banks. Shorter blocks, or a bank of 3 or 199 features at any block size, can change
    the bits that one whole phase product gives, so every feature matrix is made from these.
    Blocks alternate over up to two lanes, one in a helper thread, each making its blocks dense
    in one buffer made by the caller (made in the helper, they raised the peak footprint); every
    block keeps its own phase product, so the bits do not depend on the lanes. A phase that is
    not finite raises :class:`NumericError`."""
    half = out.shape[-1] // 2
    cuts = [*range(0, max(len(out) // 256, 1) * 256, 256), len(out)]
    blocks = list(zip(cuts, cuts[1:]))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lanes = min(2, cpus or 1, len(blocks))
    buffers = [np.zeros((max(stop - start for start, stop in blocks[lane::lanes]), record.shape[1]))
               for lane in range(lanes)]
    errors = [None] * lanes

    def fill(lane, dense):
        try:
            for start, stop in blocks[lane::lanes]:
                block = record.dense(slice(start, stop), out=dense[:stop - start])
                for s, bank in enumerate(banks):
                    phase = out[start:stop, s, :half]  # replaced by its sin once its cos is taken
                    with np.errstate(over="ignore", invalid="ignore"):  # refused below
                        np.matmul(block, bank.frequencies.T, out=phase)
                    if not np.isfinite(phase).all():
                        raise NumericError("feature phases overflow float64: edge weights too "
                                           "large for the kernel variance")
                    np.cos(phase, out=out[start:stop, s, half:])
                    np.sin(phase, out=phase)
                np.put(block, record.take(slice(start, stop)).flat, 0.0)  # zeros for the next
        except BaseException as error:  # raised in the caller once every lane is done
            errors[lane] = error

    helpers = [threading.Thread(target=fill, args=(1, buffers[1]))] if lanes == 2 else []
    for thread in helpers:
        thread.start()
    fill(0, buffers[0])
    for thread in helpers:
        thread.join()
    for error in filter(None, errors):
        raise error
    out /= math.sqrt(half)
    return out


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
