"""PVUSA parametric PV plant model and its estimation from monitored power.

The model expresses the instantaneous AC power of a plant as
``p = a*I + b*I**2 + c*I*T`` with irradiance ``I`` (W/m^2), air temperature
``T`` (degC) and plant-specific coefficients ``a > 0``, ``b < 0``, ``c < 0``.
Estimation runs a sign-constrained least squares over a sliding window of
power measurements, refit on a fixed cadence; nighttime samples carry no
information about the coefficients and are excluded.

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
        if np.any(irr < 0):
            raise WeatherShapeError("irradiance must be >= 0")
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


def _sign_constrained_ls(design: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Least squares with a > 0, b < 0, c < 0 via active-set enumeration.

    With only three sign constraints the candidate active sets can be
    enumerated: each coefficient is either free or pinned at its (tiny)
    bound. The optimum of the convex problem is the feasible candidate with
    the smallest residual; pinning all three gives a feasible candidate, so
    there always is one. Returns None when the design is rank deficient,
    i.e. its smallest singular value is at most 1e-12 times its largest;
    otherwise every column subset has full rank as well.
    """
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        return None
    bounds = np.array([_A_FLOOR, -_BC_FLOOR, -_BC_FLOOR])
    best, best_sse = bounds, np.inf
    for pattern in product((False, True), repeat=3):
        pinned = np.array(pattern)
        beta = bounds.copy()
        free = ~pinned
        if np.any(free):
            rhs = target - design[:, pinned] @ bounds[pinned]
            beta[free] = np.linalg.lstsq(design[:, free], rhs, rcond=None)[0]
        if beta[0] < _A_FLOOR or beta[1] > -_BC_FLOOR or beta[2] > -_BC_FLOOR:
            continue
        sse = float(np.sum((design @ beta - target) ** 2))
        if sse < best_sse - 1e-15:
            best, best_sse = beta, sse
    return best


def fit_pvusa(
    power_kw,
    weather: WeatherSeries,
    window_hours: float = 12.0,
    step_hours: float = 1.0,
    daytime_threshold_wm2: float = _DAYTIME_WM2,
    min_samples: int = 3,
) -> list[tuple[np.datetime64, PvusaParams]]:
    """Sliding-window sign-constrained estimation of the PVUSA coefficients.

    Each window minimizes the squared power residual over its daytime samples
    subject to the coefficient signs. Windows advance by ``step_hours``.
    Windows with fewer than ``min_samples`` daytime samples are skipped with
    a diagnostic; windows whose design matrix is rank deficient reuse the
    previous estimate. Returns the estimate trajectory as
    ``[(window_end_timestamp, params), ...]`` in time order; the last entry
    is the steady-state estimate.
    """
    power = np.asarray(power_kw, dtype=float)
    if power.shape != weather.timestamps.shape:
        raise WeatherShapeError("power series must match the weather length")
    ts = weather.timestamps
    day = weather.irradiance_wm2 > daytime_threshold_wm2

    window = np.timedelta64(int(round(window_hours * 3600)), "s")
    step = np.timedelta64(int(round(step_hours * 3600)), "s")
    trajectory: list[tuple[np.datetime64, PvusaParams]] = []
    previous: PvusaParams | None = None

    start = ts[0]
    while start + window <= ts[-1] + np.timedelta64(1, "s"):
        end = start + window
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="right")
        sel = np.flatnonzero(day[lo:hi]) + lo
        start = start + step
        if sel.size < max(min_samples, 3):
            logger.debug("window ending %s skipped: %d daytime samples",
                         end, sel.size)
            continue
        irr = weather.irradiance_wm2[sel]
        tmp = weather.temperature_c[sel]
        design = np.column_stack([irr, irr ** 2, irr * tmp])
        beta = _sign_constrained_ls(design, power[sel])
        if beta is None:
            if previous is None:
                logger.debug("window ending %s rank deficient, no fallback", end)
                continue
            logger.debug("window ending %s rank deficient, keeping previous", end)
            trajectory.append((end, previous))
            continue
        previous = PvusaParams(a=float(beta[0]), b=float(beta[1]), c=float(beta[2]))
        trajectory.append((end, previous))
    return trajectory


def steady_state_fit(
    power_kw,
    weather: WeatherSeries,
    daytime_threshold_wm2: float = _DAYTIME_WM2,
) -> PvusaParams:
    """Pooled sign-constrained fit over the whole daytime history.

    Individual half-day windows give unbiased but high-variance estimates
    (the three regressors are nearly collinear within a single day); the
    long-run value is obtained by pooling every daytime sample into one
    regression, which is what the window trajectory converges to as history
    accumulates.
    """
    power = np.asarray(power_kw, dtype=float)
    if power.shape != weather.timestamps.shape:
        raise WeatherShapeError("power series must match the weather length")
    day = weather.irradiance_wm2 > daytime_threshold_wm2
    if np.count_nonzero(day) < 3:
        raise ValueError("not enough daytime samples for a pooled fit")
    irr = weather.irradiance_wm2[day]
    tmp = weather.temperature_c[day]
    design = np.column_stack([irr, irr ** 2, irr * tmp])
    beta = _sign_constrained_ls(design, power[day])
    if beta is None:
        raise ValueError("pooled design matrix is rank deficient")
    return PvusaParams(a=float(beta[0]), b=float(beta[1]), c=float(beta[2]))


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
