"""Closed-form selection of the Gaussian kernel variance.

The usable range of the variance splits into four regimes (chaos,
extending, disturbing, averaging) separated by three boundaries derived
from the pairwise-distance statistics of the training vectors and the
noise-range ceiling. The extending/disturbing boundary is the variance at
which the similarity of the farthest pair just clears the noise ceiling;
it is the recommended operating point.

Only the closed form lives here. A ceiling measured by a training run
(``harness.select_prepared``) enters through :meth:`SelectionReport.refined`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ArgumentError, DegenerateInputError, NumericError, StateError
from .graph_data import pairwise_stats
from .weights import noise_up_theoretical


@dataclass(frozen=True)
class SelectionReport:
    """All inputs, intermediates and boundaries of one variance selection.

    Every number carries a provenance tag in :meth:`to_dict` so reports
    are auditable; ``noise_up_source`` says whether the noise ceiling came
    from the closed form or from a refinement training pass.
    """

    d_sq_max: float
    d_sq_min_nonzero: float
    noise_up: float
    noise_up_source: str
    sigma_sq_ed: float
    sigma_sq_ce: float
    sigma_sq_da: float
    closeness: float
    eta: float
    n_features: int
    da_first_order: bool = False

    def refined(self, noise_up: float) -> SelectionReport:
        """This report with a run-measured ceiling; a ceiling of 0 keeps the theoretical one."""
        if noise_up >= 2.0 * self.eta:
            raise NumericError(f"refined noise ceiling {noise_up} reached 2*eta; run diverged, "
                               "check eta and epochs")
        if not noise_up > 0.0:
            return self
        return replace(self, noise_up=noise_up, noise_up_source="refined",
                       sigma_sq_ed=sigma_ed(self.d_sq_max, noise_up, self.eta),
                       sigma_sq_ce=sigma_ce(self.d_sq_min_nonzero, noise_up, self.eta))

    def to_dict(self) -> dict:
        own = {"noise_up": self.noise_up_source,
               "sigma_sq_da": "first-order" if self.da_first_order else "closed-form"}
        return {
            "format": "skg-selection-report-v1",
            **{key: {"value": getattr(self, key), "source": tag or own[key]}
               for key, tag in _TAGS.items()},
            "inputs": {"eta": self.eta, "n_features": self.n_features},
        }


# The report's tagged numbers, in report order, with their provenance tags; None marks a
# tag the report itself carries (see :meth:`SelectionReport.to_dict`).
_TAGS = {"d_sq_max": "pairwise-scan", "d_sq_min_nonzero": "pairwise-scan", "noise_up": None,
         "sigma_sq_ed": "closed-form", "sigma_sq_ce": "closed-form", "sigma_sq_da": None,
         "closeness": "parameter"}

SELECTION_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "skg selection report",
    "type": "object",
    "required": ["format", *_TAGS, "inputs"],
    "properties": {
        "format": {"const": "skg-selection-report-v1"},
        **{key: {"$ref": "#/definitions/tagged"} for key in _TAGS},
        "inputs": {
            "type": "object",
            "required": ["eta", "n_features"],
            "properties": {
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "n_features": {"type": "integer", "minimum": 1},
            },
        },
    },
    "definitions": {
        "tagged": {
            "type": "object",
            "required": ["value", "source"],
            "properties": {
                "value": {"type": "number"},
                "source": {"type": "string"},
            },
        }
    },
}


def _log_noise_ratio(noise_up: float, eta: float) -> float:
    if not eta > 0:
        raise ArgumentError(f"eta must be positive, got {eta}")
    if not 0.0 < noise_up < 2.0 * eta:
        raise NumericError(
            f"noise ceiling must lie in (0, 2*eta) = (0, {2 * eta}), got {noise_up}"
        )
    return math.log(noise_up / (2.0 * eta))


def sigma_ed(d_sq_max: float, noise_up: float, eta: float) -> float:
    """Extending/disturbing boundary: -d_sq_max / (2*ln(noise_up / (2*eta)))."""
    if not d_sq_max > 0:
        raise ArgumentError(f"d_sq_max must be positive, got {d_sq_max}")
    return -d_sq_max / (2.0 * _log_noise_ratio(noise_up, eta))


def sigma_ce(d_sq_min_nonzero: float, noise_up: float, eta: float) -> float:
    """Chaos/extending boundary from the smallest nonzero pair distance."""
    if d_sq_min_nonzero is None:
        raise StateError("no nonzero pair distance recorded; all vectors coincide")
    if not d_sq_min_nonzero > 0:
        raise ArgumentError(f"d_sq_min_nonzero must be positive, got {d_sq_min_nonzero}")
    return -d_sq_min_nonzero / (2.0 * _log_noise_ratio(noise_up, eta))


def sigma_da(d_sq_max: float, closeness: float, first_order: bool = False) -> float:
    """Disturbing/averaging boundary: -d_sq_max / (2*ln(1 - closeness)).

    ``closeness`` says how near the farthest pair's similarity must get to
    its 2*eta ceiling and has to stay below 0.5 to mean "closer to the
    ceiling than to zero". ``first_order`` replaces ln(1-c) by -c, which
    reproduces the d_sq_max/(2c) rule of thumb.
    """
    if not d_sq_max > 0:
        raise ArgumentError(f"d_sq_max must be positive, got {d_sq_max}")
    if not 0.0 < closeness < 0.5:
        raise ArgumentError(f"closeness must lie in (0, 0.5), got {closeness}")
    if first_order:
        return d_sq_max / (2.0 * closeness)
    return -d_sq_max / (2.0 * math.log1p(-closeness))


def select(vectors, eta: float, n_features: int, *, closeness: float = 0.1,
           first_order_da: bool = False) -> SelectionReport:
    """Closed-form variance selection for a training set of adjacency vectors.

    Scans all pairwise squared distances of the sampled nodes' ``vectors``
    (shape (n, m)), takes the theoretical noise ceiling of the learning rate
    ``eta`` and bank size ``n_features`` the model will run with, and
    evaluates the three regime boundaries; ``closeness`` and
    ``first_order_da`` shape the disturbing/averaging one (see :func:`sigma_da`).
    """
    stats = pairwise_stats(vectors)
    if stats.d_sq_max == 0.0:
        raise DegenerateInputError("all adjacency vectors are identical; no nonzero distance")
    noise = noise_up_theoretical(eta, n_features)
    return SelectionReport(
        d_sq_max=stats.d_sq_max,
        d_sq_min_nonzero=stats.d_sq_min_nonzero,
        noise_up=noise,
        noise_up_source="theoretical",
        sigma_sq_ed=sigma_ed(stats.d_sq_max, noise, eta),
        sigma_sq_ce=sigma_ce(stats.d_sq_min_nonzero, noise, eta),
        sigma_sq_da=sigma_da(stats.d_sq_max, closeness, first_order_da),
        closeness=float(closeness),
        eta=float(eta),
        n_features=int(n_features),
        da_first_order=bool(first_order_da),
    )
