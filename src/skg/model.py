"""The trainable predictor: a linear head over random Fourier features.

Training is sequential least-squares gradient descent. Starting from an
all-zero coefficient vector, each step computes the residual with the
current coefficients and moves them by twice the learning rate times the
residual along the feature vector. Within each epoch the training set is
visited in a fresh seeded shuffle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import ArgumentError, DataError, NumericError
from .graph_data import TrainingSet, _node_set, _open_out, _read_json, write_csv
from .rff import RandomFeatureBank, feature_matrix, sample_bank


@dataclass(frozen=True)
class TrainingTrace:
    """Per-step record of one training run.

    ``order[t]`` is the training-set index processed at step t (0-based
    storage; step times are 1-based in exports), ``predictions[t]`` the
    pre-update prediction and ``errors[t]`` the pre-update residual.
    """

    order: np.ndarray
    predictions: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        predictions = np.asarray(self.predictions, dtype=np.float64)
        errors = np.asarray(self.errors, dtype=np.float64)
        if not (order.shape == predictions.shape == errors.shape) or order.ndim != 1:
            raise ArgumentError("order, predictions and errors must be 1-d and equally long")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "errors", errors)

    @property
    def duration(self) -> int:
        return self.order.size


@dataclass
class SkgModel:
    """Linear coefficients over a frozen feature bank.

    ``theta`` starts at zero and has length 2*n_features. ``train``
    mutates the model in place; training is strictly sequential, but a
    trained model may be shared read-only for batch prediction.
    """

    bank: RandomFeatureBank
    eta: float
    theta: np.ndarray = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            # unit-norm features scale a revisited node's residual by (1 - 2*eta)
            raise ArgumentError(f"learning rate must lie in (0, 1), got {self.eta}")
        if self.theta is None:
            self.theta = np.zeros(2 * self.bank.n_features, dtype=np.float64)
        else:
            self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (2 * self.bank.n_features,):
            raise ArgumentError(
                f"theta must have length {2 * self.bank.n_features}, got {self.theta.shape}"
            )

    def predict_batch(self, vectors) -> np.ndarray:
        """Predicted nodal values for the rows of ``vectors``, an array or a nonzero record."""
        return feature_matrix(self.bank, vectors) @ self.theta

    def train(self, training_set: TrainingSet, epochs: int, seed: int) -> TrainingTrace:
        """Run ``epochs`` passes over the set, reshuffling each epoch.

        Node order is drawn from the ORDER stream of ``seed``, so it is
        unaffected by bank size or the split. Returns the full trace
        (duration = epochs * n).
        """
        if epochs < 1:
            raise ArgumentError(f"epochs must be at least 1, got {epochs}")
        features = feature_matrix(self.bank, training_set.vectors)
        return _train_lockstep(features[:, None], training_set.values, epochs, seed,
                               self.theta[None], self.eta)[0]


def _train_lockstep(features, values, epochs: int, seed: int, state, eta: float) -> list:
    """Every run's training: the rows of ``state`` (S, D), trained in place on features
    (n, S, D) in the seed's visit order, as :func:`sgd_pass`; one trace per row."""
    if not np.all(np.isfinite(features)) or not np.all(np.isfinite(values)):
        raise NumericError("non-finite features or values in training set")
    order = training_order(len(values), epochs, seed)
    predictions = sgd_pass(features, order, values, state, eta)
    errors = values[order][:, None] - predictions
    return [TrainingTrace(order, predictions[:, s], errors[:, s]) for s in range(len(state))]


def training_order(n: int, epochs: int, seed: int) -> np.ndarray:
    """Visit order of a run over ``n`` nodes: one ORDER-stream permutation per epoch."""
    rng = streams.stream(seed, streams.ORDER)
    return np.concatenate([rng.permutation(n) for _ in range(epochs)])


def sgd_pass(features, order, targets, state, eta: float) -> np.ndarray:
    """Least-squares SGD over ``order``; returns the pre-update predictions (T, S).

    ``state`` holds S coefficient vectors (S, D), trained side by side over
    features (n, S, D), row s on ``features[:, s]``. Step t takes z =
    ``features[order[t], s]``, predicts with row s of ``state`` and moves it
    in place by 2*eta*(``targets[order[t]]`` - prediction) along z. Each row
    steps bit for bit as it would on its own: one row runs on Python floats
    and ``z.dot``, in half the time of the batched ``matmul`` of 1-D rows,
    which numpy evaluates as the same BLAS dot.
    """
    predictions = np.empty((order.size, len(state)), dtype=np.float64)
    gain = 2.0 * eta
    if len(state) == 1:
        theta, rows, out = state[0], features[:, 0], predictions[:, 0]
        step = np.empty_like(theta)
        targets = targets.tolist()
        for t, idx in enumerate(order.tolist()):
            z = rows[idx]
            pred = float(z.dot(theta))
            np.multiply(z, gain * (targets[idx] - pred), out=step)
            theta += step
            out[t] = pred
        return predictions
    step = np.empty_like(state)
    column = state[:, :, None]
    for t, idx in enumerate(order.tolist()):
        z = features[idx]
        pred = np.matmul(z[:, None, :], column)[:, 0, 0]
        np.multiply(z, (gain * (targets[idx] - pred))[:, None], out=step)
        state += step
        predictions[t] = pred
    return predictions


def save_model(path, model: SkgModel, referencing, value_scale) -> None:
    """Serialize a model as JSON (theta in hex floats for exact round trips).

    The bank is stored as (sigma_sq, seed, dims) and regenerated on load,
    which reproduces the frequencies bit-for-bit. The ``referencing`` node
    ids, whose adjacency vectors the model reads, and the training
    ``value_scale`` make a predict-only deployment self-contained.
    """
    payload = {
        "format": "skg-model-v1",
        "input_dim": model.bank.input_dim,
        "n_features": model.bank.n_features,
        "sigma_sq": model.bank.sigma_sq.hex(),
        "eta": float(model.eta).hex(),
        "bank_seed": model.bank.seed,
        "theta": [x.hex() for x in model.theta.tolist()],
        "referencing": list(referencing),
        "value_scale": float(value_scale).hex(),
    }
    with _open_out(path) as handle:  # dumps runs json's C encoder, dump never
        handle.write(json.dumps(payload) + "\n")


def load_model(path):
    """Load a model written by :func:`save_model`.

    Returns ``(model, metadata)`` where metadata carries the
    ``referencing`` list and the ``value_scale``. Every key is read and
    checked before the bank is drawn: a file that is not JSON, lacks a key
    or holds a bad hex, list or parameter value raises :class:`DataError`
    naming it.
    """
    payload = _read_json(path, "skg-model-v1", "a model file")
    referencing = payload.get("referencing")
    # the bank's size is checked against this list, so it is refused first
    if referencing is None:
        raise DataError(f"{path}: model lacks a referencing node list")
    try:
        if not isinstance(payload["theta"], list):
            raise DataError(f"{path}: theta must be a list of hex floats")
        theta = np.array([float.fromhex(x) for x in payload["theta"]], dtype=np.float64)
        for key in ("n_features", "input_dim", "bank_seed"):
            if type(payload[key]) is not int:  # a bool is an int to isinstance, 7.0 is not
                raise DataError(f"{path}: {key} must be an integer, got {payload[key]!r}")
        n_features, input_dim = payload["n_features"], payload["input_dim"]
        # checked before the bank is drawn, which takes n_features * input_dim floats
        if theta.shape != (2 * n_features,):
            raise DataError(f"{path}: theta must have length {2 * n_features}, got {theta.shape}")
        ids = _node_set(referencing)
        if ids is None or not len(ids) == len(referencing) == input_dim:
            raise DataError(f"{path}: referencing must list {input_dim} distinct node ids")
        sigma_sq, eta = float.fromhex(payload["sigma_sq"]), float.fromhex(payload["eta"])
        scale = float.fromhex(payload["value_scale"])
        if not (0.0 < scale < math.inf):
            raise DataError(f"{path}: value_scale must be positive and finite, got {scale}")
        bank = sample_bank(sigma_sq, n_features, input_dim, payload["bank_seed"])
        model = SkgModel(bank=bank, eta=eta, theta=theta)
    except KeyError as exc:
        raise DataError(f"{path}: model lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:  # ArgumentError is a ValueError
        raise DataError(f"{path}: {exc}") from exc
    return model, {"referencing": referencing, "value_scale": scale}


def write_training_trace_csv(path, trace: TrainingTrace) -> None:
    """Write a trace as ``t,node_index,prediction,error`` rows (t from 1)."""
    write_csv(path, ("t", "node_index", "prediction", "error"),
              zip(range(1, trace.duration + 1), trace.order.tolist(), trace.predictions.tolist(),
                  trace.errors.tolist()))
