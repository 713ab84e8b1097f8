"""Synthetic right-censored survival data with known ground-truth risk.

Covariates are uniform on [-1, 1)^d. A raw death time is drawn as
``T = u / exp(h(x))`` with ``u`` exponential (mean `mean_u`); when a
treatment arm is simulated the exponent becomes ``tau * h(x)`` with
``tau ~ Bernoulli(0.5)``, so the control group is unaffected by the
covariates. Times are right-censored at the empirical quantile of the raw
times that leaves `observed_fraction` of patients with an observed event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coxkit.data import SurvivalDataset

DEFAULT_COVARIATE_DIM = 10
DEFAULT_MEAN_U = 5.0
DEFAULT_OBSERVED_FRACTION = 0.9


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one synthetic dataset draw."""

    n: int
    d: int = DEFAULT_COVARIATE_DIM
    risk_kind: str = "linear"
    lambda_max: float = 5.0
    r: float = 0.5
    mean_u: float = DEFAULT_MEAN_U
    observed_fraction: float = DEFAULT_OBSERVED_FRACTION
    with_treatment: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 2:
            raise ValueError("d must be >= 2 (risk functions use x0 and x1)")
        if self.risk_kind not in ("linear", "gaussian"):
            raise ValueError(f"risk_kind {self.risk_kind!r} is not linear or gaussian")
        if self.lambda_max <= 0 or self.r <= 0:
            raise ValueError("lambda_max and r must be positive")
        if self.mean_u <= 0:
            raise ValueError("mean_u must be positive")
        if not 0.0 < self.observed_fraction < 1.0:
            raise ValueError("observed_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class SimulatedDataset:
    """A drawn dataset plus its generating ground truth.

    `true_risks` holds each patient's effective log-risk exponent: h(x)
    without a treatment arm, tau * h(x) with one.
    """

    dataset: SurvivalDataset
    true_risks: np.ndarray
    censor_time: float


def risk_linear(x: np.ndarray) -> np.ndarray:
    """Linear ground-truth risk x0 + 2*x1; rows of a matrix are patients."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("risk functions need at least 2 covariates")
    return x[..., 0] + 2.0 * x[..., 1]


def risk_gaussian(x: np.ndarray, lambda_max: float, r: float) -> np.ndarray:
    """Gaussian bump risk log(lambda_max) * exp(-(x0^2 + x1^2) / (2 r^2))."""
    if lambda_max <= 0 or r <= 0:
        raise ValueError("lambda_max and r must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("risk functions need at least 2 covariates")
    sq = x[..., 0] ** 2 + x[..., 1] ** 2
    return np.log(lambda_max) * np.exp(-sq / (2.0 * r * r))


def censor_threshold(raw_times: np.ndarray, observed_fraction: float) -> float:
    """Empirical quantile of the raw death times at `observed_fraction`.

    Linear interpolation between order statistics, so censoring at this
    threshold leaves that fraction of patients observed.
    """
    raw_times = np.asarray(raw_times, dtype=float)
    if raw_times.size == 0:
        raise ValueError("raw_times must be non-empty")
    return float(np.quantile(raw_times, observed_fraction))


def generate(spec: SimulationSpec) -> SimulatedDataset:
    """Draw one dataset; bit-identical for a fixed spec (inverse-CDF sampling)."""
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(-1.0, 1.0, size=(spec.n, spec.d))
    if spec.risk_kind == "linear":
        h = risk_linear(x)
    else:
        h = risk_gaussian(x, spec.lambda_max, spec.r)

    treatments = None
    if spec.with_treatment:
        treatments = rng.integers(0, 2, size=spec.n)
        h = treatments * h

    # u ~ Exp(mean_u) via inverse CDF; rng.random() is in [0, 1) so the
    # argument of log stays in (0, 1].
    u = -spec.mean_u * np.log1p(-rng.random(spec.n))
    raw = u / np.exp(h)
    raw = np.maximum(raw, np.finfo(float).tiny)

    t0 = censor_threshold(raw, spec.observed_fraction)
    times = np.minimum(raw, t0)
    events = (raw <= t0).astype(np.int64)

    ds = SurvivalDataset(
        covariates=x,
        times=times,
        events=events,
        treatments=treatments,
        feature_names=tuple(f"x{i}" for i in range(spec.d)),
    )
    return SimulatedDataset(dataset=ds, true_risks=h, censor_time=t0)
