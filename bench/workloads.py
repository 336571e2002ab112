"""The benchmark's workloads: what one op runs, and the checks on its output.

Every call into the package goes through a module attribute
(``planner.plan``, ``pvusa.fit_pvusa``, ...) so that the traced run can wrap
those attributes from outside. An op that raises one of the package's
failure types becomes a failure record; it does not abort the run.

A run draws its season from the seasons listed in ``screened.json`` and
skips the ops listed there, which ``screen.py`` found the package to fail on.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from capfirm import controller, domain, optim, planner, pvusa, scenarios

import season as gen

RATIOS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
PRICES_EUR_MWH = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0)
PEAK_PRICE_FACTOR = 2.0
DAY_RATIO = 0.5
DAY_PRICE_EUR_MWH = 100.0
DAY_SCENARIOS = 20
FORECAST_SCENARIOS = 100
WINDOW_HOURS = 12.0
STEP_HOURS = 1.0
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Battery defaults of the reference plant (``bess.*`` in capfirm.config):
# full charge in one hour, 10-90 % SoC window, 95 % efficiency each way.
HOURS_TO_FULL = 1.0
SOC_MIN_FRAC = 0.10
SOC_MAX_FRAC = 0.90
SOC_INIT_FRAC = 0.10
ETA = 0.95

# Relative tolerance of every equality check: the branch-and-bound gap
# tolerance of ``optim.solve_miqp``, 1e-6 * (1 + |value|).
REL_TOL = 1e-6
# A pooled PVUSA fit must reproduce the generating power curve on its own
# daytime history to this share of the capacity (measurement noise is 1 %).
CURVE_TOL = 0.02

FAILURES = (planner.PlanningError, controller.ControlInfeasibleError, optim.SolverError)

# The seasons a run draws from and, per workload, the ops of those seasons
# that the package fails on or that run close to the op time limit; written
# by ``screen.py``.
SCREENED = Path(__file__).resolve().parent / "screened.json"


def system_for(ratio: float) -> domain.SystemConfig:
    cap = ratio * gen.PV_CAPACITY_KW
    power = cap / HOURS_TO_FULL
    return domain.SystemConfig(
        pv_capacity_kw=gen.PV_CAPACITY_KW, bess_capacity_kwh=cap,
        bess_min_kwh=SOC_MIN_FRAC * cap, charge_power_kw=power,
        discharge_power_kw=power, eta_charge=ETA, eta_discharge=ETA,
        soc_init_kwh=SOC_INIT_FRAC * cap, soc_end_kwh=SOC_INIT_FRAC * cap,
        soc_max_kwh=SOC_MAX_FRAC * cap)


def policy_for(grid: domain.TimeGrid, price: float) -> domain.TariffPolicy:
    return domain.build_cre_policy(grid, price, PEAK_PRICE_FACTOR * price,
                                   gen.PV_CAPACITY_KW)


@dataclass(frozen=True)
class OpSpec:
    """Identity of one op; fields that do not apply are None."""

    day: int
    ratio: float | None = None
    price: float | None = None
    mode: str | None = None

    def record(self) -> dict:
        return {"day": self.day, "ratio": self.ratio, "price": self.price,
                "mode": self.mode}


@dataclass
class Checks:
    """Output checks; every violation is kept as one line of text."""

    violations: list[str] = field(default_factory=list)
    # (day, ratio, mode) -> {price: plan objective}, for price homogeneity
    plan_by_price: dict = field(default_factory=dict)
    # (day, ratio, price) -> {mode: net revenue}, for D* >= D
    net_by_mode: dict = field(default_factory=dict)
    # OpSpec -> result fingerprint, for determinism across repeated ops
    seen: dict = field(default_factory=dict)

    def close(self, what: str, spec: OpSpec, a: float, b: float) -> None:
        if abs(a - b) > REL_TOL * (1.0 + max(abs(a), abs(b))):
            self.violations.append(f"{what}: {a!r} != {b!r} at {spec.record()}")

    def check_plan(self, spec, result, policy, grid, weights) -> None:
        verdict = domain.check_engagement(result.engagement, policy)
        if not verdict.ok:
            self.violations.append(f"engagement violates {verdict.violation} at {spec.record()}")
        net = sum(w * float(np.sum(domain.net_remuneration_series(
            result.engagement.values_kw, trace.production_kw, policy, grid)))
            for w, trace in zip(weights, result.traces))
        self.close("plan objective vs -expected net remuneration", spec,
                   result.objective, -net)

    def check_control(self, spec, result) -> None:
        self.close("control objective vs -net revenue", spec,
                   result.objective, -result.economics.net_revenue_eur)

    def repeatable(self, spec, fingerprint: tuple) -> None:
        if spec in self.seen and self.seen[spec] != fingerprint:
            self.violations.append(f"repeated op gave {fingerprint} then "
                                   f"{self.seen[spec]} at {spec.record()}")
        self.seen[spec] = fingerprint

    def finish(self) -> None:
        """Checks that need several ops: price homogeneity and D* >= D."""
        for (day, ratio, mode), by_price in self.plan_by_price.items():
            per_100 = {p: obj * 100.0 / p for p, obj in by_price.items()}
            ref = float(np.median(list(per_100.values())))
            for p, v in per_100.items():
                self.close("plan objective per 100 EUR/MWh across prices",
                           OpSpec(day, ratio, p, mode), v, ref)
        for (day, ratio, price), by_mode in self.net_by_mode.items():
            if "D" in by_mode and "Dstar" in by_mode:
                d, dstar = by_mode["D"], by_mode["Dstar"]
                if dstar < d - REL_TOL * (1.0 + max(abs(d), abs(dstar))):
                    self.violations.append(
                        f"D* net revenue {dstar!r} below D {d!r} at "
                        f"{OpSpec(day, ratio, price).record()}")


class Workload:
    """One named workload over one synthetic season."""

    name = ""
    op_name = ""

    def __init__(self, season: gen.Season, seed: int, excluded=frozenset()):
        self.season = season
        self.seed = seed
        self.excluded = frozenset(excluded)
        self.grid = domain.TimeGrid.daily(gen.DELTA_T_HOURS)
        self.timestamps = season.timestamps.reshape(gen.N_DAYS, gen.PERIODS)
        self.stage = ""

    def ops(self):
        """Endless, seeded op sequence without the excluded ops."""
        return (spec for spec in self.all_ops() if spec not in self.excluded)

    def all_ops(self):
        """Endless, seeded op sequence; the same seed gives the same ops."""
        raise NotImplementedError

    def run(self, spec: OpSpec):
        raise NotImplementedError

    def check(self, spec: OpSpec, outcome, checks: Checks) -> None:
        raise NotImplementedError

    def _days(self):
        """Target days in golden-ratio stride order from a seeded start.

        Any run of consecutive ops then spreads evenly over the season, so
        runs of different seeds see the same mix of early and late days.
        """
        days = self.season.target_days
        n = days.size
        stride = next(k for k in range(round(n / GOLDEN), n) if math.gcd(k, n) == 1)
        start = int(np.random.default_rng(self.seed).integers(n))
        for i in itertools.count():
            yield int(days[(start + i * stride) % n])

    def _ratio(self, day: int) -> float:
        """Battery ratio of a day's sizing cases.

        The number of target days is a multiple of ``len(RATIOS)``, so the
        stride order meets every ratio once in any ``len(RATIOS)``
        consecutive days.
        """
        return RATIOS[(day - gen.HISTORY_DAYS) % len(RATIOS)]

    def _history(self, day: int) -> tuple[pvusa.WeatherSeries, np.ndarray]:
        h = slice(day - gen.HISTORY_DAYS, day)
        weather = pvusa.WeatherSeries(self.timestamps[h].ravel(),
                                      self.season.irradiance_wm2[h].ravel(),
                                      self.season.temperature_c[h].ravel())
        return weather, self.season.power_kw[h].ravel()

    def _forecast(self, params, day: int) -> np.ndarray:
        """Point forecasts of the trailing history days and of ``day``."""
        h = slice(day - gen.HISTORY_DAYS, day + 1)
        return pvusa.pvusa_eval(params, self.season.forecast_irradiance_wm2[h],
                                self.season.forecast_temperature_c[h],
                                gen.PV_CAPACITY_KW)

    def _scenarios(self, params, day: int, count: int):
        fc = self._forecast(params, day)
        errors = self.season.power_kw[day - gen.HISTORY_DAYS:day] - fc[:-1]
        self.stage = "scenarios"
        model = scenarios.fit_copula(errors, gen.PV_CAPACITY_KW)
        return scenarios.sample_scenarios(model, fc[-1], count,
                                          self.season.seed * 1000 + day,
                                          gen.PV_CAPACITY_KW)


class DayS20(Workload):
    """Paper-scale stochastic day: forecast front end, S plan, control."""

    name = "day_s20"
    op_name = "paper-scale day (S=20 plan + oracle control)"

    def __init__(self, season, seed, excluded=frozenset()):
        super().__init__(season, seed, excluded)
        self.policy = policy_for(self.grid, DAY_PRICE_EUR_MWH)
        self.system = system_for(DAY_RATIO)

    def all_ops(self):
        return (OpSpec(day, DAY_RATIO, DAY_PRICE_EUR_MWH, "S") for day in self._days())

    def run(self, spec):
        self.stage = "pvusa"
        weather, power = self._history(spec.day)
        params = pvusa.steady_state_fit(power, weather)
        scen = self._scenarios(params, spec.day, DAY_SCENARIOS)
        self.stage = "planner"
        plan = planner.plan(planner.PlanningInstance(
            self.grid, self.policy, self.system, scen, "S"))
        self.stage = "controller"
        control = controller.oracle_control(
            plan.engagement, self.season.power_kw[spec.day], self.policy,
            self.system, self.grid)
        return plan, control, scen.weights

    def check(self, spec, outcome, checks):
        plan, control, weights = outcome
        checks.check_plan(spec, plan, self.policy, self.grid, weights)
        checks.check_control(spec, control)
        checks.repeatable(spec, (plan.objective, control.objective))


class SweepDet(Workload):
    """Sizing cases: D on the forecast and D* on the realized PV."""

    name = "sweep_det"
    op_name = "sizing case (deterministic plan + oracle control)"

    def __init__(self, season, seed, excluded=frozenset()):
        super().__init__(season, seed, excluded)
        self.policies = {p: policy_for(self.grid, p) for p in PRICES_EUR_MWH}
        self.systems = {r: system_for(r) for r in RATIOS}

    def all_ops(self):
        """Cases grouped per (day, ratio): both modes at all 8 prices.

        Days follow the stride order and each day has one ratio, so a short
        run still covers every ratio and the whole season.
        """
        for day in self._days():
            for mode in ("D", "Dstar"):
                for price in PRICES_EUR_MWH:
                    yield OpSpec(day, self._ratio(day), price, mode)

    def run(self, spec):
        policy, system = self.policies[spec.price], self.systems[spec.ratio]
        realized = self.season.power_kw[spec.day]
        profile = self.season.forecast_kw[spec.day] if spec.mode == "D" else realized
        self.stage = "planner"
        plan = planner.plan_deterministic(profile, self.grid, policy, system, mode=spec.mode)
        self.stage = "controller"
        control = controller.oracle_control(plan.engagement, realized, policy,
                                            system, self.grid)
        return plan, control

    def check(self, spec, outcome, checks):
        plan, control = outcome
        policy = self.policies[spec.price]
        checks.check_plan(spec, plan, policy, self.grid, (1.0,))
        checks.check_control(spec, control)
        checks.repeatable(spec, (plan.objective, control.objective))
        checks.plan_by_price.setdefault(
            (spec.day, spec.ratio, spec.mode), {})[spec.price] = plan.objective
        checks.net_by_mode.setdefault(
            (spec.day, spec.ratio, spec.price), {})[spec.mode] = \
            control.economics.net_revenue_eur


class ForecastS100(Workload):
    """Forecast front end only: rolling and pooled PVUSA fits, copula, S=100."""

    name = "forecast_s100"
    op_name = "forecast day (PVUSA fits + copula + S=100 sampling)"

    def all_ops(self):
        return (OpSpec(day) for day in self._days())

    def run(self, spec):
        self.stage = "pvusa"
        weather, power = self._history(spec.day)
        trajectory = pvusa.fit_pvusa(power, weather, window_hours=WINDOW_HOURS,
                                     step_hours=STEP_HOURS)
        params = pvusa.steady_state_fit(power, weather)
        return trajectory, params, self._scenarios(params, spec.day, FORECAST_SCENARIOS)

    def check(self, spec, outcome, checks):
        trajectory, params, scen = outcome
        if not trajectory:
            checks.violations.append(f"rolling fit returned no window at {spec.record()}")
        h = slice(spec.day - gen.HISTORY_DAYS, spec.day)
        irr, tmp = self.season.irradiance_wm2[h], self.season.temperature_c[h]
        gap = np.max(np.abs(pvusa.pvusa_eval(params, irr, tmp, gen.PV_CAPACITY_KW)
                            - gen.pvusa_kw(irr, tmp)))
        if gap > CURVE_TOL * gen.PV_CAPACITY_KW:
            checks.violations.append(
                f"pooled fit is {gap:.2f} kW off the generating curve at {spec.record()}")
        values = scen.values_kw
        if (values.shape != (FORECAST_SCENARIOS, gen.PERIODS) or values.min() < 0.0
                or values.max() > gen.PV_CAPACITY_KW):
            checks.violations.append(f"scenario set out of shape or range at {spec.record()}")
        checks.repeatable(spec, (params.a, params.b, params.c, float(values.sum())))


WORKLOADS = {w.name: w for w in (DayS20, SweepDet, ForecastS100)}


def load_screen(path: Path = SCREENED) -> dict:
    return json.loads(path.read_text())


def make(name: str, seed: int, screen: dict | None = None) -> Workload:
    """The workload of a run: a screened season and that season's exclusions.

    ``seed`` picks one of the screened seasons and orders its ops, so the
    same seed gives the same inputs.
    """
    screen = load_screen() if screen is None else screen
    seasons = screen["seasons"]
    season_seed = seasons[seed % len(seasons)]
    excluded = {OpSpec(r["day"], r["ratio"], r["price"], r["mode"])
                for r in screen["excluded"][name] if r["season"] == season_seed}
    return WORKLOADS[name](gen.make_season(season_seed), seed, excluded)


def failure_record(workload: Workload, spec: OpSpec, exc: Exception) -> dict:
    """One structured record per failed op: layer, stage, case and period."""
    layer = {planner.PlanningError: "planner",
             controller.ControlInfeasibleError: "controller",
             optim.SolverError: "optim"}.get(type(exc), workload.stage)
    return {"workload": workload.name, "layer": layer, "stage": workload.stage,
            **spec.record(), "period": getattr(exc, "period", None),
            "error": type(exc).__name__, "message": str(exc)}
