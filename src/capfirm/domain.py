"""Core time-grid, tariff and plant types plus the remuneration rules.

Conventions used across the package: power in kW (a negative production is a
withdrawal from the grid), energy in kWh, stored prices in EUR/MWh. Prices are
converted to money in one place, :func:`money_coefficients`, so every money
term of the QPs and of the grading is the price times one coefficient.

All types are immutable after construction (arrays are made read-only), so
they can be shared freely between worker processes or threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The reference CRE-style tender, defined here only (fractions of the installed
# PV capacity): ramping limits, engagement/production floors and caps, and the
# tolerance deadband, with tighter floors during the evening peak window.
RAMP_FRAC_OFFPEAK = 0.075
RAMP_FRAC_PEAK = 0.15
ENG_MIN_FRAC_OFFPEAK = -0.05
ENG_MIN_FRAC_PEAK = 0.20
PROD_MIN_FRAC_OFFPEAK = -0.05
PROD_MIN_FRAC_PEAK = 0.15
ENG_MAX_FRAC = 1.0
PROD_MAX_FRAC = 1.0
DEADBAND_FRAC = 0.05
PEAK_START_HOUR = 19.0
PEAK_END_HOUR = 21.0


class InvalidConfigError(ValueError):
    """A tariff/plant configuration violates one of its invariants."""


class ShapeError(ValueError):
    """An input series does not match the time grid."""


def _frozen_array(values, n: int | None = None, name: str = "array") -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {arr.shape[0]}")
    # every comparison with NaN is False, so a NaN entry would pass any check
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Daily planning/controlling grid: period count, duration and peak flags."""

    n_periods: int
    delta_t_hours: float
    peak_mask: np.ndarray

    def __post_init__(self):
        if self.n_periods < 1:
            raise InvalidConfigError("n_periods must be >= 1")
        if not (np.isfinite(self.delta_t_hours) and self.delta_t_hours > 0):
            raise InvalidConfigError("delta_t_hours must be finite and > 0")
        mask = np.asarray(self.peak_mask, dtype=bool).copy()
        if mask.shape != (self.n_periods,):
            raise ShapeError("peak_mask must have one entry per period")
        mask.setflags(write=False)
        object.__setattr__(self, "peak_mask", mask)

    @classmethod
    def daily(cls, delta_t_hours: float = 0.25) -> "TimeGrid":
        """Build a 24 h grid; peak periods start in [PEAK_START_HOUR, PEAK_END_HOUR)."""
        if not delta_t_hours > 0:
            raise InvalidConfigError("delta_t_hours must be > 0")
        n = int(round(24.0 / delta_t_hours))
        if abs(n * delta_t_hours - 24.0) > 1e-9:
            raise InvalidConfigError("delta_t_hours must divide 24 h")
        starts = np.arange(n) * delta_t_hours
        mask = (starts >= PEAK_START_HOUR) & (starts < PEAK_END_HOUR)
        return cls(n_periods=n, delta_t_hours=delta_t_hours, peak_mask=mask)


@dataclass(frozen=True)
class TariffPolicy:
    """Per-period tender rules: prices, ramping limits, bounds and deadband.

    ``eng_*`` bound the day-ahead engagement, ``prod_*`` bound the realized
    production at the coupling point. ``deadband_kw`` is the tolerance around
    the engagement within which deviations are not penalized.
    """

    price_eur_mwh: np.ndarray
    ramp_limit_kw: np.ndarray
    eng_min_kw: np.ndarray
    eng_max_kw: np.ndarray
    prod_min_kw: np.ndarray
    prod_max_kw: np.ndarray
    deadband_kw: float
    pv_capacity_kw: float

    def __post_init__(self):
        n = np.asarray(self.price_eur_mwh).shape[0]
        for name in ("price_eur_mwh", "ramp_limit_kw", "eng_min_kw",
                     "eng_max_kw", "prod_min_kw", "prod_max_kw"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), n, name))
        if not (np.isfinite(self.pv_capacity_kw) and self.pv_capacity_kw > 0):
            raise InvalidConfigError("pv_capacity_kw must be finite and > 0")
        if not (np.isfinite(self.deadband_kw) and self.deadband_kw >= 0):
            raise InvalidConfigError("deadband_kw must be finite and >= 0")
        if np.any(self.ramp_limit_kw < 0):
            raise InvalidConfigError("ramp limits must be >= 0")
        if np.any(self.eng_min_kw > self.eng_max_kw):
            raise InvalidConfigError("eng_min must be <= eng_max in every period")
        if np.any(self.prod_min_kw > self.prod_max_kw):
            raise InvalidConfigError("prod_min must be <= prod_max in every period")

    @property
    def n_periods(self) -> int:
        return self.price_eur_mwh.shape[0]


@dataclass(frozen=True)
class SystemConfig:
    """Plant physics: PV capacity and battery capacity/power/efficiency limits.

    ``soc_max_kwh`` is the operating ceiling on the state of charge; it
    defaults to the nominal capacity but is lower when the battery is operated
    inside a reduced window (e.g. 10-90 % of nominal). Investment costs and
    cycle counting always refer to the nominal ``bess_capacity_kwh``.
    """

    pv_capacity_kw: float
    bess_capacity_kwh: float
    bess_min_kwh: float
    charge_power_kw: float
    discharge_power_kw: float
    eta_charge: float
    eta_discharge: float
    soc_init_kwh: float
    soc_end_kwh: float
    soc_max_kwh: float | None = None

    def __post_init__(self):
        if self.soc_max_kwh is None:
            object.__setattr__(self, "soc_max_kwh", float(self.bess_capacity_kwh))
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite")
        if self.pv_capacity_kw <= 0:
            raise InvalidConfigError("pv_capacity_kw must be > 0")
        if not (0.0 < self.eta_charge <= 1.0 and 0.0 < self.eta_discharge <= 1.0):
            raise InvalidConfigError("efficiencies must lie in (0, 1]")
        if self.charge_power_kw <= 0 or self.discharge_power_kw <= 0:
            raise InvalidConfigError("charge/discharge power must be > 0")
        if not (0.0 <= self.bess_min_kwh <= self.soc_max_kwh <= self.bess_capacity_kwh):
            raise InvalidConfigError("need 0 <= soc floor <= soc ceiling <= capacity")
        for name in ("soc_init_kwh", "soc_end_kwh"):
            v = getattr(self, name)
            if not (self.bess_min_kwh - 1e-9 <= v <= self.soc_max_kwh + 1e-9):
                raise InvalidConfigError(f"{name} outside the SoC operating window")


@dataclass(frozen=True)
class EngagementPlan:
    """Day-ahead committed export profile (kW, negative = withdrawal)."""

    values_kw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values_kw",
                           _frozen_array(self.values_kw, None, "values_kw"))

    def __len__(self) -> int:
        return self.values_kw.shape[0]


@dataclass(frozen=True)
class DispatchTrace:
    """Realized intraday dispatch of one day for one PV realization."""

    production_kw: np.ndarray
    pv_used_kw: np.ndarray
    charge_kw: np.ndarray
    discharge_kw: np.ndarray
    soc_kwh: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.production_kw).shape[0]
        for name in ("production_kw", "pv_used_kw", "charge_kw",
                     "discharge_kw", "soc_kwh"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), n, name))

    def validate(self, grid: TimeGrid, system: SystemConfig) -> None:
        """Raise if the trace violates balance, SoC or sign constraints by 1e-6."""
        tol = 1e-6
        if self.production_kw.shape[0] != grid.n_periods:
            raise ShapeError("trace length does not match the grid")
        for name in ("pv_used_kw", "charge_kw", "discharge_kw"):
            if np.any(getattr(self, name) < -tol):
                raise ValueError(f"{name} has negative entries beyond tolerance")
        balance = self.production_kw - (self.pv_used_kw + self.discharge_kw - self.charge_kw)
        if np.max(np.abs(balance)) > tol:
            raise ValueError("power balance violated beyond tolerance")
        if np.any(self.soc_kwh < system.bess_min_kwh - tol) or \
           np.any(self.soc_kwh > system.soc_max_kwh + tol):
            raise ValueError("state of charge leaves its operating window")
        flux = grid.delta_t_hours * (system.eta_charge * self.charge_kw
                                     - self.discharge_kw / system.eta_discharge)
        soc_prev = np.concatenate(([system.soc_init_kwh], self.soc_kwh[:-1]))
        if np.max(np.abs(self.soc_kwh - soc_prev - flux)) > tol:
            raise ValueError("SoC recursion violated beyond tolerance")
        if abs(self.soc_kwh[-1] - system.soc_end_kwh) > tol:
            raise ValueError("terminal SoC does not match its boundary value")


@dataclass(frozen=True)
class EngagementViolation:
    kind: str          # "ramp" | "lower_bound" | "upper_bound"
    period: int        # 0-based period index
    value: float
    limit: float


@dataclass(frozen=True)
class EngagementCheck:
    ok: bool
    violation: EngagementViolation | None = None


def build_cre_policy(
    grid: TimeGrid,
    price_offpeak_eur_mwh: float,
    price_peak_eur_mwh: float,
    pv_capacity_kw: float,
) -> TariffPolicy:
    """Assemble the CRE-style tender policy for a plant of given capacity.

    Off-peak periods get the loose ramp and the negative engagement floor
    (withdrawals allowed); peak periods get the tight ramp and the positive
    engagement/production floors. Caps equal the installed capacity.
    """
    if not (np.isfinite(pv_capacity_kw) and pv_capacity_kw > 0):
        raise InvalidConfigError("pv_capacity_kw must be finite and > 0")
    if price_offpeak_eur_mwh < 0 or price_peak_eur_mwh < 0:
        raise InvalidConfigError("prices must be >= 0")
    peak = grid.peak_mask
    price = np.where(peak, price_peak_eur_mwh, price_offpeak_eur_mwh)
    ramp = pv_capacity_kw * np.where(peak, RAMP_FRAC_PEAK, RAMP_FRAC_OFFPEAK)
    eng_min = pv_capacity_kw * np.where(peak, ENG_MIN_FRAC_PEAK, ENG_MIN_FRAC_OFFPEAK)
    prod_min = pv_capacity_kw * np.where(peak, PROD_MIN_FRAC_PEAK, PROD_MIN_FRAC_OFFPEAK)
    eng_max = np.full(grid.n_periods, ENG_MAX_FRAC * pv_capacity_kw)
    prod_max = np.full(grid.n_periods, PROD_MAX_FRAC * pv_capacity_kw)
    return TariffPolicy(
        price_eur_mwh=price,
        ramp_limit_kw=ramp,
        eng_min_kw=eng_min,
        eng_max_kw=eng_max,
        prod_min_kw=prod_min,
        prod_max_kw=prod_max,
        deadband_kw=DEADBAND_FRAC * pv_capacity_kw,
        pv_capacity_kw=float(pv_capacity_kw),
    )


def battery_floor_scale(grid: TimeGrid, policy: TariffPolicy, system: SystemConfig) -> float:
    """Least factor on the battery's energy and power that meets the peak
    production floor from the battery alone, with no PV in the peak window.

    The battery must then deliver ``sum_peak prod_min * dt`` at the coupling
    point from its SoC window, which costs ``1/eta_discharge`` as much
    energy, and the largest peak floor within its discharge power. So the
    factor is the larger of ``sum_peak prod_min * dt / (eta_discharge *
    (soc_max - soc_min))`` and ``max_peak prod_min / discharge_power``; a
    negative floor asks nothing of the battery, and a positive one that a
    closed SoC window must meet asks for an infinite factor. Every battery
    quantity of a plan scales with the battery size, so a system scaled by
    less than this cannot plan a day without PV in the peak window. For the reference
    tender (a floor of 0.15 Pc for 2 h) and a 10-90 % window at 95 %
    efficiency, a battery of ratio ``r`` gets ``0.3 / 0.76 / r``.
    """
    floor = np.maximum(policy.prod_min_kw[grid.peak_mask], 0.0)
    energy = float(floor.sum()) * grid.delta_t_hours
    window = system.eta_discharge * (system.soc_max_kwh - system.bess_min_kwh)
    by_energy = energy / window if window > 0 else (np.inf if energy > 0 else 0.0)
    return max(by_energy, float(floor.max(initial=0.0)) / system.discharge_power_kw)


def check_engagement(plan: EngagementPlan, policy: TariffPolicy) -> EngagementCheck:
    """Validate an engagement against ramping limits and per-period bounds.

    The ramp constraint is not checked at the first period: consecutive days
    are decoupled, so there is no committed predecessor to ramp from.
    Returns the first violated constraint scanning periods in order
    (ramp, then lower bound, then upper bound within each period).
    """
    p = plan.values_kw
    if p.shape[0] != policy.n_periods:
        raise ShapeError(f"plan has length {p.shape[0]}, policy expects {policy.n_periods}")
    tol = 1e-9
    step = np.abs(np.diff(p))
    ramp = np.concatenate([[False], step > policy.ramp_limit_kw[1:] + tol])
    low = p < policy.eng_min_kw - tol
    high = p > policy.eng_max_kw + tol
    bad = np.flatnonzero(ramp | low | high)
    if bad.size:
        t = int(bad[0])
        if ramp[t]:
            return EngagementCheck(False, EngagementViolation(
                "ramp", t, step[t - 1], policy.ramp_limit_kw[t]))
        if low[t]:
            return EngagementCheck(False, EngagementViolation(
                "lower_bound", t, p[t], policy.eng_min_kw[t]))
        return EngagementCheck(False, EngagementViolation(
            "upper_bound", t, p[t], policy.eng_max_kw[t]))
    return EngagementCheck(True, None)


def money_coefficients(policy: TariffPolicy,
                       grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """EUR per kW produced (``dt * price``) and EUR per kW^2 of penalized
    shortfall (that over the PV capacity) in each period; every money term of
    the QPs and of the grading is one of them times a power.
    """
    revenue = grid.delta_t_hours * (policy.price_eur_mwh / 1000.0)
    return revenue, revenue / policy.pv_capacity_kw


def penalty_series(
    engagement_kw: np.ndarray,
    production_kw: np.ndarray,
    policy: TariffPolicy,
    grid: TimeGrid,
) -> np.ndarray:
    """Threshold-quadratic deviation penalty per period, in EUR.

    Underproduction deeper than the deadband below the engagement is charged
    ``penalty * d * (d + 4 * deadband)``, with the penalty coefficient of
    :func:`money_coefficients` and ``d`` the shortfall beyond the deadband.
    Inside the deadband, and anywhere above it, the penalty is zero: planned
    and controlled dispatches never produce above ``engagement + deadband``.
    """
    band = policy.deadband_kw
    _, penalty = money_coefficients(policy, grid)
    under = np.maximum((np.asarray(engagement_kw) - band) - np.asarray(production_kw), 0.0)
    return penalty * under * (under + 4.0 * band)


def net_remuneration_series(
    engagement_kw: np.ndarray,
    production_kw: np.ndarray,
    policy: TariffPolicy,
    grid: TimeGrid,
) -> np.ndarray:
    """Per-period gross revenue minus deviation penalty, in EUR.

    The gross term is signed: withdrawing from the grid (negative production)
    costs money at the same contracted price.
    """
    revenue, _ = money_coefficients(policy, grid)
    gross = revenue * np.asarray(production_kw)
    return gross - penalty_series(engagement_kw, production_kw, policy, grid)
