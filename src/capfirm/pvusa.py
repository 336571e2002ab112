"""PVUSA parametric PV plant model and its estimation from monitored power.

The model expresses the instantaneous AC power of a plant as
``p = a*I + b*I**2 + c*I*T`` with irradiance ``I`` (W/m^2), air temperature
``T`` (degC) and plant-specific coefficients ``a > 0``, ``b < 0``, ``c < 0``.
Estimation runs a sign-constrained least squares over a sliding window of
power measurements, refit on a fixed cadence; nighttime samples carry no
information about the coefficients and are excluded. The windows are solved
in batches: each window's daytime samples fill one slice of a zero-padded
stack of design and target, one batched QR reduces every window to a 3x3
triangular ``R`` and ``Q^T y``, the rank test runs on the singular values of
``R``, and the sign constraints are met by enumerating the active sets on
``R``. The pooled fit over the whole history is the same kernel on a stack of
one.

A Haurwitz-style clear-sky irradiance helper is included for synthetic data
generation and daytime masking; timestamps are interpreted as local solar
time (no equation-of-time correction), which is all the synthetic pipeline
needs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

logger = logging.getLogger(__name__)

#: Steady-state coefficients of the reference ~466 kW rooftop plant; used as
#: the generating parameters of the synthetic dataset.
REFERENCE_PARAMS = None  # set below, after the dataclass exists

_DAYTIME_WM2 = 5.0
_A_FLOOR = 1e-9
_BC_FLOOR = 1e-12
# The sign constraints a >= _A_FLOOR, b <= -_BC_FLOOR, c <= -_BC_FLOOR, as
# sign * coefficient >= floor, and the bound each coefficient is pinned at.
_SIGNS = np.array([1.0, -1.0, -1.0])
_FLOORS = np.array([_A_FLOOR, _BC_FLOOR, _BC_FLOOR])
_BOUNDS = _SIGNS * _FLOORS
# The candidate active sets in enumeration order, True where a coefficient is
# pinned at its bound; the last pins all three. They are solved in groups of
# equal free count (3, 2, 1), each group with its free columns.
_PINNED = np.array(list(product((False, True), repeat=3)))
_FREE_GROUPS = [(group, np.array([np.flatnonzero(~_PINNED[p]) for p in group]))
                for group in (np.flatnonzero((~_PINNED).sum(axis=1) == k)
                              for k in (3, 2, 1))]
# Padded rows per batched solve of fit_pvusa's windows (512 KiB of stack), so
# that its working memory stays small whatever the series length.
_BLOCK_ROWS = 1 << 14


class WeatherShapeError(ValueError):
    """Weather series columns are inconsistent or invalid."""


@dataclass(frozen=True)
class PvusaParams:
    """PVUSA coefficients; signs are part of the model's physical validity."""

    a: float   # kW per (W/m^2)
    b: float   # kW per (W/m^2)^2
    c: float   # kW per (W/m^2 * degC)

    def __post_init__(self):
        if not (self.a > 0 and self.b < 0 and self.c < 0):
            raise ValueError(f"invalid PVUSA signs: a={self.a}, b={self.b}, c={self.c}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


REFERENCE_PARAMS = PvusaParams(a=0.573, b=-7.68e-5, c=-1.86e-3)


@dataclass(frozen=True)
class WeatherSeries:
    """Timestamped irradiance (W/m^2) and air temperature (degC)."""

    timestamps: np.ndarray
    irradiance_wm2: np.ndarray
    temperature_c: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[ns]")
        irr = np.asarray(self.irradiance_wm2, dtype=float).copy()
        tmp = np.asarray(self.temperature_c, dtype=float).copy()
        if not (ts.shape == irr.shape == tmp.shape):
            raise WeatherShapeError("weather columns must have equal lengths")
        # a NaN irradiance would read as night, and a NaN temperature would
        # break the fits' SVD
        if not (np.isfinite(irr).all() and np.isfinite(tmp).all()):
            raise WeatherShapeError("irradiance and temperature must be finite")
        if np.any(irr < 0):
            raise WeatherShapeError("irradiance must be >= 0")
        # the fits find their windows by binary search; NaT compares False
        if np.isnat(ts).any() or not (np.diff(ts) > np.timedelta64(0)).all():
            raise WeatherShapeError("timestamps must be strictly increasing, without NaT")
        for name, arr in (("timestamps", ts), ("irradiance_wm2", irr),
                          ("temperature_c", tmp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.timestamps.shape[0]


def pvusa_eval(params: PvusaParams, irradiance_wm2, temperature_c,
               capacity_kw: float | None = None):
    """Evaluate the PVUSA power (kW) at given irradiance and temperature.

    Parameters
    ----------
    params : PvusaParams
        Model coefficients.
    irradiance_wm2 : scalar or array
        Plane irradiance, must be >= 0.
    temperature_c : scalar or array
        Air temperature.
    capacity_kw : float, optional
        When given, the result is clipped to [0, capacity_kw] (inverter
        limits and the impossibility of negative generation).
    """
    irr = np.asarray(irradiance_wm2, dtype=float)
    if np.any(irr < 0):
        raise ValueError("irradiance must be >= 0")
    tmp = np.asarray(temperature_c, dtype=float)
    power = params.a * irr + params.b * irr ** 2 + params.c * irr * tmp
    if capacity_kw is not None:
        power = np.clip(power, 0.0, capacity_kw)
    if np.isscalar(irradiance_wm2) and np.isscalar(temperature_c):
        return float(power)
    return power


def _sign_constrained_ls(stack: np.ndarray):
    """Least squares with a > 0, b < 0, c < 0 for a stack of problems at once.

    ``stack`` is (W, L, 4): per problem, the rows ``(I, I^2, I*T, power)`` of
    a design X and its target y, zero-padded to a common length L >= 3. Zero
    rows change neither the least-squares solution nor the singular values,
    so the padding is exact.

    One batched QR of ``[X | y]`` gives every problem's 3x3 ``R`` and, in its
    last column, ``Q^T y``. ``R`` has the design's singular values; a design is
    rank deficient when the smallest is at most 1e-12 times the largest, and
    otherwise every column subset has full rank as well.

    With only three sign constraints the candidate active sets can be
    enumerated: each coefficient is either free or pinned at its (tiny)
    bound. Each candidate is a least-squares problem on ``R`` and ``Q^T y``;
    those with the same number of free coefficients share one batched QR.
    All candidates of a problem share the residual outside range(X), so
    residuals are compared on ``|R beta - Q^T y|^2``. The optimum of the
    convex problem is the feasible candidate with the smallest residual:
    taken in enumeration order, a candidate replaces the best so far only if
    its residual is smaller by more than 1e-15. Pinning all three gives a
    feasible candidate, so there always is one.

    Returns ``(beta, full_rank)``: the (W, 3) coefficients, NaN where the
    (W,) mask ``full_rank`` is False.
    """
    r_aug = np.linalg.qr(stack, mode="r")
    sv = np.linalg.svd(r_aug[:, :3, :3], compute_uv=False)
    full_rank = sv[:, -1] > 1e-12 * sv[:, 0]
    r, qty = r_aug[full_rank, :3, :3], r_aug[full_rank, :3, 3]
    n = r.shape[0]
    # beta[w, p]: candidate p of problem w, pinned coefficients at their bound
    beta = np.tile(_BOUNDS, (n, len(_PINNED), 1))
    rhs = qty[:, None] - np.einsum("wij,pj->wpi", r, np.where(_PINNED, _BOUNDS, 0.0))
    for group, free in _FREE_GROUPS:
        # the QR of [R_F | rhs] gives R_F's triangle and, last, Q^T rhs
        k = free.shape[1]
        r_free = np.linalg.qr(np.concatenate(
            [r[:, :, free].transpose(0, 2, 1, 3), rhs[:, group, :, None]], axis=3), mode="r")
        beta[:, group[:, None], free] = np.linalg.solve(
            r_free[..., :k, :k], r_free[..., :k, k:])[..., 0]
    feasible = np.all(beta * _SIGNS >= _FLOORS, axis=2)
    sse = np.sum((np.einsum("wij,wpj->wpi", r, beta) - qty[:, None]) ** 2, axis=2)
    best, best_sse = np.full(n, len(_PINNED) - 1), np.full(n, np.inf)
    for p in range(len(_PINNED)):
        better = feasible[:, p] & (sse[:, p] < best_sse - 1e-15)
        best, best_sse = np.where(better, p, best), np.where(better, sse[:, p], best_sse)
    out = np.full((stack.shape[0], 3), np.nan)
    out[full_rank] = beta[np.arange(n), best]
    return out, full_rank


def _daytime_rows(power_kw, weather: WeatherSeries):
    """Indices of the daytime samples, and their rows ``(I, I^2, I*T, power)``.

    Raises WeatherShapeError when the power series does not match the
    weather or is not finite: a NaN power makes every candidate's residual
    NaN, and the fit would fall back to the all-pinned coefficients.
    """
    power_kw = np.asarray(power_kw, dtype=float)
    if power_kw.shape != weather.timestamps.shape:
        raise WeatherShapeError("power series must match the weather length")
    if not np.isfinite(power_kw).all():
        raise WeatherShapeError("power series must be finite")
    day = np.flatnonzero(weather.irradiance_wm2 > _DAYTIME_WM2)
    irr, tmp = weather.irradiance_wm2[day], weather.temperature_c[day]
    return day, np.column_stack([irr, irr ** 2, irr * tmp, power_kw[day]])


def fit_pvusa(
    power_kw,
    weather: WeatherSeries,
    window_hours: float = 12.0,
    step_hours: float = 1.0,
) -> list[tuple[np.datetime64, PvusaParams]]:
    """Sliding-window sign-constrained estimation of the PVUSA coefficients.

    Each window minimizes the squared power residual over its daytime samples
    subject to the coefficient signs. The first window starts at the first
    timestamp and windows advance by ``step_hours``; a window covers its
    start and end inclusively and counts while its end is at most one second
    past the last timestamp. Windows with fewer than 3 daytime samples
    (irradiance above 5 W/m^2) are skipped with a diagnostic; windows whose
    design matrix is rank deficient repeat the previous estimate (the same
    object). Returns the estimate trajectory as
    ``[(window_end_timestamp, params), ...]`` in time order; the last entry is
    the steady-state estimate.

    The windows are fitted in batches rather than one by one: their daytime
    samples are gathered into a zero-padded (windows, longest window, 4)
    stack of design and target, reduced by one batched QR and rank-tested on
    the singular values of each ``R`` (see ``_sign_constrained_ls``). A batch
    holds up to ``_BLOCK_ROWS`` padded rows; on 60 days of quarter-hour data
    with 12-hour windows that is about 330 windows.

    Raises WeatherShapeError when the power series does not match the
    weather or is not finite, and ValueError when the step rounds to less
    than one second or the window to zero seconds or less.
    """
    day, rows = _daytime_rows(power_kw, weather)
    window_s = int(round(window_hours * 3600))
    step_s = int(round(step_hours * 3600))
    if window_s <= 0:
        raise ValueError(f"window_hours must be positive, got {window_hours}")
    if step_s < 1:
        raise ValueError(f"step_hours must be at least one second, got {step_hours}")
    ts = weather.timestamps
    if ts.size == 0:
        return []
    window = np.timedelta64(window_s, "s")
    step = np.timedelta64(step_s, "s")

    # window k starts at ts[0] + k*step; exact integer nanoseconds throughout
    span = ts[-1] + np.timedelta64(1, "s") - window - ts[0]
    count = int(span // step) + 1 if span >= np.timedelta64(0, "s") else 0
    ends = ts[0] + np.arange(count) * step + window
    first = np.searchsorted(day, np.searchsorted(ts, ends - window, side="left"))
    n_day = np.searchsorted(day, np.searchsorted(ts, ends, side="right")) - first

    fitted = np.flatnonzero(n_day >= 3)
    padded = np.vstack([rows, np.zeros(4)])     # index -1 reads a zero row
    per_block = max(1, _BLOCK_ROWS // int(n_day.max(initial=1)))
    fits = []
    for lo in range(0, fitted.size, per_block):
        block = fitted[lo:lo + per_block]
        offsets = np.arange(n_day[block].max())
        index = np.where(offsets < n_day[block, None], first[block, None] + offsets, -1)
        beta, full_rank = _sign_constrained_ls(np.take(padded, index, axis=0))
        fits.extend(zip(beta.tolist(), full_rank.tolist()))

    trajectory: list[tuple[np.datetime64, PvusaParams]] = []
    previous: PvusaParams | None = None
    solved = iter(fits)
    for end, n in zip(ends, n_day.tolist()):
        if n < 3:
            logger.debug("window ending %s skipped: %d daytime samples", end, n)
            continue
        coef, ok = next(solved)
        if ok:
            previous = PvusaParams(*coef)
        elif previous is None:
            logger.debug("window ending %s rank deficient, no fallback", end)
            continue
        else:
            logger.debug("window ending %s rank deficient, keeping previous", end)
        trajectory.append((end, previous))
    return trajectory


def steady_state_fit(power_kw, weather: WeatherSeries) -> PvusaParams:
    """Pooled sign-constrained fit over the whole daytime history.

    Individual half-day windows give unbiased but high-variance estimates
    (the three regressors are nearly collinear within a single day); the
    long-run value is obtained by pooling every daytime sample into one
    regression, which is what the window trajectory converges to as history
    accumulates. The regression is ``_sign_constrained_ls`` on a stack of
    one design, the same kernel as ``fit_pvusa``'s.
    """
    _, rows = _daytime_rows(power_kw, weather)
    if rows.shape[0] < 3:
        raise ValueError("not enough daytime samples for a pooled fit")
    beta, full_rank = _sign_constrained_ls(rows[None])
    if not full_rank[0]:
        raise ValueError("pooled design matrix is rank deficient")
    return PvusaParams(*beta[0].tolist())


def clear_sky_irradiance(latitude_deg: float, timestamps):
    """Deterministic Haurwitz-class clear-sky global irradiance (W/m^2).

    ``timestamps`` (scalar or array of datetime64 / ISO strings) are taken as
    local solar time. Zero at or below the horizon, smooth elsewhere.
    """
    if abs(latitude_deg) > 90.0:
        raise ValueError("latitude must lie in [-90, 90] degrees")
    scalar = np.isscalar(timestamps) or isinstance(timestamps, np.datetime64)
    ts = np.atleast_1d(np.asarray(timestamps, dtype="datetime64[ns]"))
    day_start = ts.astype("datetime64[D]")
    hour = (ts - day_start) / np.timedelta64(1, "h")
    doy = (day_start - day_start.astype("datetime64[Y]")) / np.timedelta64(1, "D") + 1.0

    decl = np.deg2rad(23.45) * np.sin(2.0 * np.pi * (284.0 + doy) / 365.0)
    lat = np.deg2rad(latitude_deg)
    hour_angle = np.deg2rad(15.0 * (hour - 12.0))
    cos_zenith = (np.sin(lat) * np.sin(decl)
                  + np.cos(lat) * np.cos(decl) * np.cos(hour_angle))
    cos_zenith = np.clip(cos_zenith, 0.0, 1.0)
    ghi = np.where(cos_zenith > 0.0,
                   1098.0 * cos_zenith * np.exp(-0.059 / np.maximum(cos_zenith, 1e-9)),
                   0.0)
    return float(ghi[0]) if scalar else ghi
