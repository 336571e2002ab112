"""Gaussian-copula generation of PV power scenarios around a point forecast.

The dependence model couples per-lead-time empirical error distributions
(error = measurement - forecast, in kW) through a multivariate normal
correlation structure estimated from normal scores of the historical errors.
The marginals are one (days x T) matrix of column-sorted errors, so every
step runs on all lead times at once, ranks included: one stable sort per lead
time. Sampling correlates every scenario's normals in one stacked product
with the Cholesky factor, pushes them through the standard normal CDF and
maps each coordinate through the inverse empirical marginal; adding the
sampled errors to the forecast and clipping to the plant's feasible range
yields one scenario.

Reproducibility: one draw fills its (n x T) normals, row by row, from a
single ``numpy.random.default_rng(seed)`` stream. So a scenario set is
bit-identical for a fixed (model, forecast, n, seed), and scenario sets are
nested: the first m scenarios of an n-scenario draw are the m-scenario draw.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import special

MIN_HISTORY_DAYS = 30
_EIG_FLOOR = 1e-8


class EstimationError(ValueError):
    """Raised when the error history cannot support a copula fit."""


@dataclass(frozen=True)
class CopulaModel:
    """Empirical error marginals coupled by a normal-score correlation.

    ``sorted_errors_kw`` is the (days x T) error history with each column
    sorted ascending: column k is the empirical marginal of lead time k, read
    at the plotting positions ``(i - 0.5)/days`` that all columns share.
    ``degenerate`` (T,) flags the lead times that emit exactly zero error.
    ``correlation`` is T x T; its lower Cholesky factor is derived, not given.
    """

    sorted_errors_kw: np.ndarray
    degenerate: np.ndarray
    correlation: np.ndarray
    cholesky_factor: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.sorted_errors_kw, dtype=float).copy()
        if z.ndim != 2 or z.shape[0] < 2:
            raise ValueError("sorted errors must be (days x T) with at least 2 days")
        if not np.all(np.isfinite(z)):
            raise ValueError("sorted errors must be finite")
        if np.any(np.diff(z, axis=0) < 0):
            raise ValueError("each column of errors must be sorted ascending")
        t_n = z.shape[1]
        flags = np.asarray(self.degenerate, dtype=bool).copy()
        if flags.shape != (t_n,):
            raise ValueError("degenerate must have one flag per lead time")
        r = np.asarray(self.correlation, dtype=float).copy()
        if r.shape != (t_n, t_n):
            raise ValueError("correlation must be T x T")
        if not np.all(np.isfinite(r)):
            raise ValueError("correlation must be finite")
        if np.max(np.abs(r - r.T)) > 1e-10:
            raise ValueError("correlation must be symmetric")
        if np.max(np.abs(np.diag(r) - 1.0)) > 1e-10:
            raise ValueError("correlation must have a unit diagonal")
        if np.max(np.abs(r)) > 1.0 + 1e-10:
            raise ValueError("correlation entries must lie in [-1, 1]")
        try:
            low = np.linalg.cholesky(r)
        except np.linalg.LinAlgError:
            raise ValueError("correlation must be positive definite") from None
        for name, arr in (("sorted_errors_kw", z), ("degenerate", flags),
                          ("correlation", r), ("cholesky_factor", low)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(w))):
            raise ValueError("scenario values and weights must be finite")
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
    try:    # out - floor*I has a Cholesky factor: every eigenvalue is above the floor
        np.linalg.cholesky(out - _EIG_FLOOR * np.eye(out.shape[0]))
        return out
    except np.linalg.LinAlgError:
        pass
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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of each column of ``values`` within that column.

    Tied values share the mean of their positions, as
    ``scipy.stats.rankdata(values, axis=0, method="average")`` ranks them:
    ``(#{v_j < v_i} + #{v_j <= v_i} + 1) / 2``: in a column's sorted order,
    the first position of a value's run of ties and one past its last. The
    result is Fortran-ordered: ``np.corrcoef`` rounds otherwise on C order.
    """
    cols = values.T
    order = np.argsort(cols, axis=1, kind="stable")
    ordered = np.take_along_axis(cols, order, axis=1)
    pos = np.arange(cols.shape[1])
    run = np.ones((cols.shape[0], pos.size + 1), dtype=bool)    # a run of ties starts at k
    run[:, 1:-1] = ordered[:, 1:] != ordered[:, :-1]
    below = np.maximum.accumulate(np.where(run[:, :-1], pos, 0), axis=1)
    upto = np.minimum.accumulate(np.where(run[:, :0:-1], pos[::-1] + 1, pos.size), axis=1)
    ranks = np.empty(cols.shape)
    np.put_along_axis(ranks, order, (below + upto[:, ::-1] + 1) / 2.0, axis=1)
    return ranks.T


def fit_copula(errors_kw, pv_capacity_kw: float) -> CopulaModel:
    """Estimate marginals and normal-score correlation from an error history.

    ``errors_kw`` is a (days x T) matrix of forecast errors. Lead times whose
    sample standard deviation is below ``1e-9 * pv_capacity_kw`` (night hours)
    are flagged degenerate: they get an identity row in the correlation and
    later emit exactly zero error. Average ranks (ties share their mean
    position) are mapped through ``(rank - 0.5)/n`` before the normal
    quantile, and the estimated correlation is repaired to positive definite
    by eigenvalue flooring. ``pv_capacity_kw`` must be finite and > 0.
    """
    if not (np.isfinite(pv_capacity_kw) and pv_capacity_kw > 0):
        raise EstimationError("pv_capacity_kw must be finite and > 0")
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
    active = np.flatnonzero(~degenerate)
    scores = special.ndtri((_average_ranks(errors[:, active]) - 0.5) / days)
    corr = np.eye(t_n)
    if active.size >= 2:
        corr[np.ix_(active, active)] = np.corrcoef(scores, rowvar=False)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)

    return CopulaModel(sorted_errors_kw=np.sort(errors, axis=0),
                       degenerate=degenerate,
                       correlation=_repair_positive_definite(corr))


def _segments(u: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The interpolation segment of each uniform in [0, 1], as np.interp picks it.

    ``grid`` is the ``days`` plotting positions ``(i - 0.5)/days`` and a
    trailing +inf. Returns ``searchsorted(grid[:-1], u, "right") - 1`` clipped
    to [0, days - 2] without a binary search: rounding ``u * days`` counts the
    positions at or below u to within one, so a step each way settles the
    count. At a count of 0 the downward step reads the +inf pad; the clip
    maps the -1 it gives back to segment 0.
    """
    days = grid.size - 1
    k = np.clip((u * days + 0.5).astype(np.intp), 0, days)     # u >= 0: truncation floors
    k += grid[k] <= u
    k -= grid[k - 1] > u
    return np.clip(k - 1, 0, days - 2)


def sample_scenarios(
    model: CopulaModel,
    forecast_kw,
    n_scenarios: int,
    seed: int,
    pv_capacity_kw: float,
) -> ScenarioSet:
    """Draw a scenario set around a day-ahead point forecast.

    Scenario i is row i of (n_scenarios x T) standard normals filled in row
    order from one ``default_rng(seed)`` stream (see module note), so the
    first m scenarios do not depend on ``n_scenarios``. Each row is
    correlated through the Cholesky factor, transformed to uniforms and
    mapped through the inverse empirical marginals; degenerate lead times
    contribute exactly zero error. Results are clipped to [0, pv_capacity_kw],
    which must be finite and > 0, and carry equal weights 1/n.
    ``n_scenarios`` and ``seed`` are integers, ``seed`` >= 0.
    """
    n_scenarios = operator.index(n_scenarios)
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    if not (np.isfinite(pv_capacity_kw) and pv_capacity_kw > 0):
        raise ValueError("pv_capacity_kw must be finite and > 0")
    forecast = np.asarray(forecast_kw, dtype=float)
    z = model.sorted_errors_kw
    days, t_n = z.shape
    if forecast.shape != (t_n,):
        raise ValueError(f"forecast must have length {t_n}")

    normals = np.random.default_rng(operator.index(seed)).standard_normal((n_scenarios, t_n))
    # the same gemv per scenario as ``cholesky_factor @ normal``, so the bits are too
    u = special.ndtr((model.cholesky_factor[None] @ normals[:, :, None])[..., 0])
    # Inverse marginals as np.interp evaluates them: the order statistics
    # joined linearly between plotting positions, flat beyond the ends.
    grid = np.append((np.arange(1, days + 1) - 0.5) / days, np.inf)
    j = _segments(u, grid)
    lo, hi = np.take_along_axis(z, j, 0), np.take_along_axis(z, j + 1, 0)
    inside = (hi - lo) / (grid[j + 1] - grid[j]) * (u - grid[j]) + lo
    err = np.where(u < grid[0], z[0], np.where(u >= grid[days - 1], z[-1], inside))
    err[:, model.degenerate] = 0.0
    values = np.clip(forecast + err, 0.0, pv_capacity_kw)
    weights = np.full(n_scenarios, 1.0 / n_scenarios)
    weights /= weights.sum()
    return ScenarioSet(values_kw=values, weights=weights)
