"""PVUSA parametric PV plant model and its estimation from monitored power.

The model expresses the instantaneous AC power of a plant as
``p = a*I + b*I**2 + c*I*T`` with irradiance ``I`` (W/m^2), air temperature
``T`` (degC) and plant-specific coefficients ``a > 0``, ``b < 0``, ``c < 0``.
Estimation runs a sign-constrained least squares over a sliding window of
power measurements, refit on a fixed cadence; nighttime samples carry no
information about the coefficients and are excluded. The windows are solved
in batches: each window's daytime samples fill one slice of a zero-padded
stack of design and target, and one batched QR reduces every window to a 3x3
triangular ``R`` and ``Q^T y``. The rest is elementwise across windows: the
rank test bounds the condition number of ``R`` in closed form and takes the
singular values only of the windows the bound cannot decide, and the sign
constraints are met by enumerating the eight active sets, each a
least-squares problem on ``R`` solved in closed form. That is one LAPACK call
per window, where a call per active set would cost more in overhead than in
arithmetic. The trajectory is three arrays, with no object per window. The
pooled fit over the whole history is the same kernel on a stack of one.

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

_DAYTIME_WM2 = 5.0
_A_FLOOR = 1e-9
_BC_FLOOR = 1e-12
# The sign constraints a >= _A_FLOOR, b <= -_BC_FLOOR, c <= -_BC_FLOOR, as
# sign * coefficient >= floor, and the bound each coefficient is pinned at.
_SIGNS = np.array([1.0, -1.0, -1.0])
_FLOORS = np.array([_A_FLOOR, _BC_FLOOR, _BC_FLOOR])
_BOUNDS = _SIGNS * _FLOORS
# The candidate active sets in enumeration order, True where a coefficient is
# pinned at its bound: free {a, b, c}, {a, b}, {a, c}, {a}, {b, c}, {b}, {c},
# and last none.
_PINNED = np.array(list(product((False, True), repeat=3)))
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


@dataclass(frozen=True)
class PvusaTrajectory:
    """A rolling fit's estimates in time order, as read-only arrays: window
    ``ends`` (W,), ``coefficients`` (W, 3) of a, b, c, and ``fitted`` (W,),
    False where a rank-deficient window repeats the row before."""

    ends: np.ndarray
    coefficients: np.ndarray
    fitted: np.ndarray

    def __post_init__(self):
        for arr in (self.ends, self.coefficients, self.fitted):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.ends.shape[0]


#: Steady-state coefficients of the reference ~466 kW rooftop plant; used as
#: the generating parameters of the synthetic dataset.
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
        Plane irradiance, must be finite and >= 0.
    temperature_c : scalar or array
        Air temperature, must be finite.
    capacity_kw : float, optional
        When given, the result is clipped to [0, capacity_kw] (inverter
        limits and the impossibility of negative generation); it must be
        finite and > 0.
    """
    if capacity_kw is not None and not (np.isfinite(capacity_kw) and capacity_kw > 0):
        raise ValueError("capacity_kw must be finite and > 0")
    irr = np.asarray(irradiance_wm2, dtype=float)
    tmp = np.asarray(temperature_c, dtype=float)
    if not (np.isfinite(irr).all() and np.isfinite(tmp).all()):
        raise ValueError("irradiance and temperature must be finite")
    if np.any(irr < 0):
        raise ValueError("irradiance must be >= 0")
    power = params.a * irr + params.b * irr ** 2 + params.c * irr * tmp
    if capacity_kw is not None:
        power = np.clip(power, 0.0, capacity_kw)
    if np.isscalar(irradiance_wm2) and np.isscalar(temperature_c):
        return float(power)
    return power


def _full_rank(r: np.ndarray) -> np.ndarray:
    """The rank test of 3x3 upper-triangular ``R``, problems last: (3, 3, W).

    A design is rank deficient when its smallest singular value is at most
    1e-12 times its largest. The singular values are taken only where that
    test can be close: ``kappa_2(R) <= |R|_F * |R^-1|_F``, with the inverse of
    the triangle in closed form, so a problem whose bound is below 1e11 is
    full rank under the test as well. The inverse's entries are products and
    quotients of entries of ``R``, except ``(R^-1)_02``, whose cancellation
    errs by a few ulps times the bound relative to ``|R^-1|_F``; a computed
    bound below 1e11 is the exact one to about 1e-5. The other problems (a
    bound of 1e11 or more, or none on an exact zero pivot) go to the batched
    SVD. Returns the (W,) mask of the full-rank problems.
    """
    (r00, r01, r02), (r11, r12), r22 = r[0], r[1, 1:], r[2, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i00, i11, i22 = 1.0 / r00, 1.0 / r11, 1.0 / r22
        i01, i12 = -r01 * i00 * i11, -r12 * i11 * i22
        i02 = (r01 * r12 - r02 * r11) * i00 * i11 * i22
        inv_sq = i00 ** 2 + i11 ** 2 + i22 ** 2 + i01 ** 2 + i12 ** 2 + i02 ** 2
        unsure = ~(np.sum(r * r, axis=(0, 1)) * inv_sq < 1e22)
    full_rank = np.ones(r.shape[2], dtype=bool)
    if unsure.any():
        sv = np.linalg.svd(r[..., unsure].transpose(2, 0, 1), compute_uv=False)
        full_rank[unsure] = sv[:, -1] > 1e-12 * sv[:, 0]
    return full_rank


def _sign_constrained_ls(stack: np.ndarray):
    """Least squares with a > 0, b < 0, c < 0 for a stack of problems at once.

    ``stack`` is (W, L, 4): per problem, the rows ``(I, I^2, I*T, power)`` of
    a design X and its target y, zero-padded to a common length L >= 3. Zero
    rows change neither the least-squares solution nor the singular values,
    so the padding is exact.

    One batched QR of ``[X | y]`` gives every problem's 3x3 ``R`` and, in its
    last column, ``Q^T y``. ``R`` has the design's singular values; a design is
    rank deficient when the smallest is at most 1e-12 times the largest (see
    ``_full_rank``), and otherwise every column subset has full rank as well.
    Everything after the QR is elementwise across the problems.

    With only three sign constraints the candidate active sets can be
    enumerated: each coefficient is either free or pinned at its (tiny)
    bound. Each candidate is a least-squares problem on ``R`` and ``Q^T y``
    with the pinned columns moved to the right-hand side, solved in closed
    form (Lawson & Hanson 1974): back-substitution on the leading triangle
    when the free set is {a, b, c}, {a, b} or {a}; one Givens rotation of
    rows 1 and 2 for {a, c}; rotations of rows 0 and 1, then 1 and 2, for
    {b, c}; and the projection on the one column for {b} or {c}.
    All candidates of a problem share the residual outside range(X), so
    residuals are compared on ``|R beta - Q^T y|^2``. The optimum of the
    convex problem is the feasible candidate with the smallest residual:
    taken in enumeration order, a candidate replaces the best so far only if
    its residual is smaller by more than 1e-15. Pinning all three gives a
    feasible candidate, so there always is one.

    Returns ``(beta, full_rank)``: the (W, 3) coefficients, NaN where the
    (W,) mask ``full_rank`` is False.
    """
    # problems last: r[i, j] is a row over the problems, r[:, 3] is Q^T y
    r = np.linalg.qr(stack, mode="r")[:, :3].transpose(1, 2, 0)
    full_rank = _full_rank(r[:, :3])
    r = r[..., full_rank]
    qty = r[:, 3]
    (r00, r01, r02), (r11, r12), r22 = r[0, :3], r[1, 1:3], r[2, 2]
    # u[i, p] and beta[j, p]: right-hand side row i and coefficient j of
    # candidate p, with the pinned coefficients at their bound
    u = qty[:, None] - np.where(_PINNED, _BOUNDS, 0.0) @ r[:, :3]
    beta = np.broadcast_to(_BOUNDS[:, None, None], u.shape).copy()
    # free {a, b, c}, {a, b}, {a}: back-substitution
    c = u[2, 0] / r22
    b = (u[1, 0] - r12 * c) / r11
    beta[:, 0] = (u[0, 0] - r01 * b - r02 * c) / r00, b, c
    b = u[1, 1] / r11
    beta[:2, 1] = (u[0, 1] - r01 * b) / r00, b
    beta[0, 3] = u[0, 3] / r00
    # free {a, c}: rotating rows 1 and 2 turns column c into (r02, rho, 0)
    rho = np.hypot(r12, r22)
    c = (r12 * u[1, 2] + r22 * u[2, 2]) / rho / rho
    beta[::2, 2] = (u[0, 2] - r02 * c) / r00, c
    # free {b, c}: rotating rows 0 and 1 turns column b into (rho, 0, 0) and
    # column c into (top, low, r22); rotating rows 1 and 2 then zeroes r22
    rho = np.hypot(r01, r11)
    top, low = (r01 * r02 + r11 * r12) / rho, (r11 * r02 - r01 * r12) / rho
    u_top, u_low = (r01 * u[0, 4] + r11 * u[1, 4]) / rho, (r11 * u[0, 4] - r01 * u[1, 4]) / rho
    rho_c = np.hypot(low, r22)
    c = (low * u_low + r22 * u[2, 4]) / rho_c / rho_c
    beta[1:, 4] = (u_top - top * c) / rho, c
    # free {b} or {c}: the projection on the one column, (r01, r11, 0) of
    # norm rho or (r02, r12, r22)
    beta[1, 5] = (r01 * u[0, 5] + r11 * u[1, 5]) / rho / rho
    rho_c = np.hypot(r02, np.hypot(r12, r22))
    beta[2, 6] = (r02 * u[0, 6] + r12 * u[1, 6] + r22 * u[2, 6]) / rho_c / rho_c
    feasible = np.all(beta * _SIGNS[:, None, None] >= _FLOORS[:, None, None], axis=0)
    sse = ((r00 * beta[0] + r01 * beta[1] + r02 * beta[2] - qty[0]) ** 2
           + (r11 * beta[1] + r12 * beta[2] - qty[1]) ** 2
           + (r22 * beta[2] - qty[2]) ** 2)
    best, best_sse = np.full(qty.shape[1], len(_PINNED) - 1), np.full(qty.shape[1], np.inf)
    for p in range(len(_PINNED)):
        better = feasible[p] & (sse[p] < best_sse - 1e-15)
        best, best_sse = np.where(better, p, best), np.where(better, sse[p], best_sse)
    out = np.full((stack.shape[0], 3), np.nan)
    out[full_rank] = beta[:, best, np.arange(best.size)].T
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
) -> PvusaTrajectory:
    """Sliding-window sign-constrained estimation of the PVUSA coefficients.

    Each window minimizes the squared power residual over its daytime samples
    subject to the coefficient signs. The first window starts at the first
    timestamp and windows advance by ``step_hours``; a window covers its
    start and end inclusively and counts while its end is at most one second
    past the last timestamp. Windows with fewer than 3 daytime samples
    (irradiance above 5 W/m^2) are skipped with a diagnostic; a window whose
    design matrix is rank deficient repeats the previous row, with ``fitted``
    False, and is dropped while there is no previous row. Returns the
    trajectory in time order as one ``PvusaTrajectory``; its last row is the
    steady-state estimate.

    The windows are fitted in batches rather than one by one: their daytime
    samples are gathered into a zero-padded (windows, longest window, 4)
    stack of design and target, reduced by one batched QR and solved on each
    ``R`` (see ``_sign_constrained_ls``). A batch holds up to ``_BLOCK_ROWS``
    padded rows; on 60 days of quarter-hour data with 12-hour windows that is
    about 330 windows.

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
        return PvusaTrajectory(ts, np.empty((0, 3)), np.empty(0, dtype=bool))
    window = np.timedelta64(window_s, "s")
    step = np.timedelta64(step_s, "s")

    # window k starts at ts[0] + k*step; exact integer nanoseconds throughout
    span = ts[-1] + np.timedelta64(1, "s") - window - ts[0]
    count = int(span // step) + 1 if span >= np.timedelta64(0, "s") else 0
    ends = ts[0] + np.arange(count) * step + window
    first = np.searchsorted(day, np.searchsorted(ts, ends - window, side="left"))
    n_day = np.searchsorted(day, np.searchsorted(ts, ends, side="right")) - first

    windows = np.flatnonzero(n_day >= 3)
    padded = np.vstack([rows, np.zeros(4)])     # index -1 reads a zero row
    per_block = max(1, _BLOCK_ROWS // int(n_day.max(initial=1)))
    beta, full_rank = np.empty((windows.size, 3)), np.empty(windows.size, dtype=bool)
    for lo in range(0, windows.size, per_block):
        block = windows[lo:lo + per_block]
        offsets = np.arange(n_day[block].max())
        index = np.where(offsets < n_day[block, None], first[block, None] + offsets, -1)
        beta[lo:lo + per_block], full_rank[lo:lo + per_block] = \
            _sign_constrained_ls(np.take(padded, index, axis=0))

    # row k copies the last full-rank window at or before window k
    source = np.maximum.accumulate(np.where(full_rank, np.arange(windows.size), -1))
    kept = source >= 0
    if logger.isEnabledFor(logging.DEBUG):
        deficient = dict(zip(windows[~full_rank].tolist(), kept[~full_rank].tolist()))
        for k, (end, n) in enumerate(zip(ends, n_day.tolist())):
            if n < 3:
                logger.debug("window ending %s skipped: %d daytime samples", end, n)
            elif k in deficient:
                logger.debug("window ending %s rank deficient, %s", end,
                             "keeping previous" if deficient[k] else "no fallback")
    coefficients = beta[source[kept]]
    valid = np.all(coefficients * _SIGNS > 0, axis=1)
    if not valid.all():
        a, b, c = coefficients[np.argmin(valid)].tolist()
        raise ValueError(f"invalid PVUSA signs: a={a}, b={b}, c={c}")
    return PvusaTrajectory(ends[windows[kept]], coefficients, full_rank[kept])


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
