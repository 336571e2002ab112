"""Gaussian-copula generation of PV power scenarios around a point forecast.

The dependence model couples per-lead-time empirical error distributions
(error = measurement - forecast, in kW) through a multivariate normal
correlation structure estimated from normal scores of the historical errors.
Sampling draws correlated normals through the Cholesky factor, pushes them
through the standard normal CDF and maps each coordinate through the inverse
empirical marginal; adding the sampled errors to the forecast and clipping to
the plant's feasible range yields one scenario.

Reproducibility: sampling derives one independent substream per scenario
index by spawning children of ``numpy.random.SeedSequence(seed)``, so results
are bit-identical for a fixed (model, forecast, n, seed) regardless of
whether scenario indices are drawn sequentially or concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

MIN_HISTORY_DAYS = 30
_EIG_FLOOR = 1e-8


class EstimationError(ValueError):
    """Raised when the error history cannot support a copula fit."""


@dataclass(frozen=True)
class ErrorMarginal:
    """Sorted historical forecast errors of one lead time."""

    lead_time: int
    sorted_errors_kw: np.ndarray
    degenerate: bool

    def __post_init__(self):
        arr = np.asarray(self.sorted_errors_kw, dtype=float).copy()
        if np.any(np.diff(arr) < 0):
            raise ValueError("marginal errors must be sorted ascending")
        arr.setflags(write=False)
        object.__setattr__(self, "sorted_errors_kw", arr)

    def inverse_cdf(self, u):
        """Linear interpolation between order statistics, flat at the tails."""
        z = self.sorted_errors_kw
        m = z.shape[0]
        grid = (np.arange(1, m + 1) - 0.5) / m
        return np.interp(u, grid, z)


@dataclass(frozen=True)
class CopulaModel:
    """Per-lead-time marginals plus the normal-score correlation structure."""

    marginals: tuple[ErrorMarginal, ...]
    correlation: np.ndarray
    cholesky_factor: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.correlation, dtype=float).copy()
        t_n = len(self.marginals)
        if r.shape != (t_n, t_n):
            raise ValueError("correlation must be T x T")
        if np.max(np.abs(r - r.T)) > 1e-10:
            raise ValueError("correlation must be symmetric")
        if np.max(np.abs(np.diag(r) - 1.0)) > 1e-10:
            raise ValueError("correlation must have a unit diagonal")
        if np.max(np.abs(r)) > 1.0 + 1e-10:
            raise ValueError("correlation entries must lie in [-1, 1]")
        low = np.asarray(self.cholesky_factor, dtype=float).copy()
        r.setflags(write=False)
        low.setflags(write=False)
        object.__setattr__(self, "correlation", r)
        object.__setattr__(self, "cholesky_factor", low)

    @property
    def n_lead_times(self) -> int:
        return len(self.marginals)


@dataclass(frozen=True)
class ScenarioSet:
    """Equally plausible PV power day profiles with their probabilities."""

    values_kw: np.ndarray       # (n_scenarios, T)
    weights: np.ndarray         # (n_scenarios,), sums to one

    def __post_init__(self):
        vals = np.asarray(self.values_kw, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if vals.ndim != 2 or w.shape != (vals.shape[0],):
            raise ValueError("values must be (n, T) with one weight per scenario")
        if np.any(w < 0):
            raise ValueError("weights must be >= 0")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")
        if np.any(vals < -1e-9):
            raise ValueError("scenario values must be >= 0")
        vals.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values_kw", vals)
        object.__setattr__(self, "weights", w)

    @property
    def n_scenarios(self) -> int:
        return self.values_kw.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values_kw.shape[1]

    @classmethod
    def single(cls, profile_kw) -> "ScenarioSet":
        profile = np.asarray(profile_kw, dtype=float)
        return cls(values_kw=profile[None, :], weights=np.array([1.0]))


def _repair_positive_definite(r: np.ndarray) -> np.ndarray:
    """Floor the eigenvalues, then renormalize the diagonal back to one."""
    out = 0.5 * (r + r.T)
    for _ in range(5):
        vals, vecs = np.linalg.eigh(out)
        if vals.min() >= _EIG_FLOOR:
            break
        vals = np.maximum(vals, 2.0 * _EIG_FLOOR)
        out = (vecs * vals) @ vecs.T
        d = np.sqrt(np.diag(out))
        out = out / np.outer(d, d)
        out = 0.5 * (out + out.T)
        np.fill_diagonal(out, 1.0)
    return out


def _average_ranks(sorted_sample: np.ndarray, values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values`` in their own sorted copy ``sorted_sample``.

    Tied values share the mean of their positions, as
    ``scipy.stats.rankdata(values, method="average")`` ranks them.
    """
    return (np.searchsorted(sorted_sample, values, "left")
            + np.searchsorted(sorted_sample, values, "right") + 1) / 2.0


def fit_copula(errors_kw, pv_capacity_kw: float) -> CopulaModel:
    """Estimate marginals and normal-score correlation from an error history.

    ``errors_kw`` is a (days x T) matrix of forecast errors. Lead times whose
    sample standard deviation is below ``1e-9 * pv_capacity_kw`` (night hours)
    are flagged degenerate: they get an identity row in the correlation and
    later emit exactly zero error. Average ranks (ties share their mean
    position) are mapped through ``(rank - 0.5)/n`` before the normal
    quantile, and the estimated correlation is repaired to positive definite
    by eigenvalue flooring.
    """
    errors = np.asarray(errors_kw, dtype=float)
    if errors.ndim != 2:
        raise EstimationError("error history must be a (days x T) matrix")
    days, t_n = errors.shape
    if days < MIN_HISTORY_DAYS:
        raise EstimationError(
            f"need at least {MIN_HISTORY_DAYS} history days, got {days}")
    if not np.all(np.isfinite(errors)):
        raise EstimationError("error history contains non-finite values")

    degenerate = errors.std(axis=0, ddof=0) < 1e-9 * pv_capacity_kw
    marginals = tuple(
        ErrorMarginal(lead_time=k,
                      sorted_errors_kw=np.sort(errors[:, k]),
                      degenerate=bool(degenerate[k]))
        for k in range(t_n))

    scores = np.zeros_like(errors)
    active = np.flatnonzero(~degenerate)
    for k in active:
        rank = _average_ranks(marginals[k].sorted_errors_kw, errors[:, k])
        scores[:, k] = special.ndtri((rank - 0.5) / days)
    corr = np.eye(t_n)
    if active.size >= 2:
        sub = np.corrcoef(scores[:, active], rowvar=False)
        corr[np.ix_(active, active)] = sub
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    corr[np.ix_(np.flatnonzero(degenerate), np.arange(t_n))] = 0.0
    corr[np.ix_(np.arange(t_n), np.flatnonzero(degenerate))] = 0.0
    np.fill_diagonal(corr, 1.0)

    repaired = _repair_positive_definite(corr)
    low = np.linalg.cholesky(repaired)
    return CopulaModel(marginals=marginals, correlation=repaired,
                       cholesky_factor=low)


def sample_scenarios(
    model: CopulaModel,
    forecast_kw,
    n_scenarios: int,
    seed: int,
    pv_capacity_kw: float,
) -> ScenarioSet:
    """Draw a scenario set around a day-ahead point forecast.

    Each scenario uses its own spawned random substream (see module note),
    draws a correlated normal vector through the Cholesky factor, transforms
    coordinates to uniforms and applies the inverse empirical marginals;
    degenerate lead times contribute exactly zero error. Results are clipped
    to [0, pv_capacity_kw] and carry equal weights 1/n.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    forecast = np.asarray(forecast_kw, dtype=float)
    t_n = model.n_lead_times
    if forecast.shape != (t_n,):
        raise ValueError(f"forecast must have length {t_n}")

    children = np.random.SeedSequence(seed).spawn(n_scenarios)
    rngs = (np.random.Generator(np.random.PCG64(child)) for child in children)
    u = special.ndtr(np.array([model.cholesky_factor @ rng.standard_normal(t_n)
                               for rng in rngs]))
    z = np.zeros((n_scenarios, t_n))
    for k, marginal in enumerate(model.marginals):
        if not marginal.degenerate:
            z[:, k] = marginal.inverse_cdf(u[:, k])
    values = np.clip(forecast + z, 0.0, pv_capacity_kw)
    weights = np.full(n_scenarios, 1.0 / n_scenarios)
    weights /= weights.sum()
    return ScenarioSet(values_kw=values, weights=weights)
