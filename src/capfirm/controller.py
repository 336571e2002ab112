"""Oracle intraday controller: perfect-knowledge dispatch of a fixed plan.

Given the committed engagement and the realized PV of the day, the controller
dispatches the battery and curtailment to maximize net remuneration. Under
perfect knowledge the receding-horizon re-solve collapses to one whole-day
problem: the first-period set-points of every re-solve coincide with the
single solve's trajectory, at a fraction of the cost.

Day economics are computed ex post from the returned trace through the
domain remuneration rules, never from the solver objective, so grading stays
decoupled from optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    DispatchTrace,
    EngagementPlan,
    ShapeError,
    SystemConfig,
    TariffPolicy,
    TimeGrid,
    net_remuneration_series,
    penalty_series,
)
from .optim import (
    QpProblem,
    QpSolution,
    SocChainHints,
    SolveStatus,
    solve_miqp,
)
from .planner import (
    DispatchIndex,
    dispatch_block,
    dispatch_trace,
    sparse_rows,
    unreachable_floor_period,
)


class ControlInfeasibleError(RuntimeError):
    """The engagement cannot be honored; carries the offending period."""

    def __init__(self, message: str, period: int | None = None):
        super().__init__(message)
        self.period = period


@dataclass(frozen=True)
class DayEconomics:
    """Ex-post money and energy figures of one controlled day."""

    gross_revenue_eur: float       # signed: withdrawals cost money
    export_revenue_eur: float      # price times exported energy only
    penalty_eur: float
    net_revenue_eur: float         # gross minus penalty
    export_kwh: float
    withdrawal_kwh: float
    discharged_kwh: float


@dataclass(frozen=True)
class ControlResult:
    trace: DispatchTrace
    economics: DayEconomics
    objective: float
    status: SolveStatus
    solution: QpSolution


def day_economics(trace: DispatchTrace, engagement: EngagementPlan,
                  policy: TariffPolicy, grid: TimeGrid) -> DayEconomics:
    """Grade a dispatch trace against its engagement under the tariff."""
    dt = grid.delta_t_hours
    price_kwh = policy.price_eur_mwh / 1000.0
    p = trace.production_kw
    gross = dt * price_kwh * p
    exported = dt * np.maximum(p, 0.0)
    withdrawn = dt * np.maximum(-p, 0.0)
    penalties = penalty_series(engagement.values_kw, p, policy, grid)
    net = net_remuneration_series(engagement.values_kw, p, policy, grid)
    return DayEconomics(
        gross_revenue_eur=float(np.sum(gross)),
        export_revenue_eur=float(np.sum(exported * price_kwh)),
        penalty_eur=float(np.sum(penalties)),
        net_revenue_eur=float(np.sum(net)),
        export_kwh=float(np.sum(exported)),
        withdrawal_kwh=float(np.sum(withdrawn)),
        discharged_kwh=float(dt * np.sum(trace.discharge_kw)),
    )


def build_control_qp(
    engagement: EngagementPlan,
    realized_pv_kw: np.ndarray,
    policy: TariffPolicy,
    system: SystemConfig,
    grid: TimeGrid,
) -> tuple[QpProblem, SocChainHints, DispatchIndex]:
    """Whole-day dispatch problem with the engagement entering as data.

    The variables are one dispatch block starting at column 0 (6*T variables,
    see :mod:`capfirm.planner`). The production cap folds the engagement
    deadband top into the variable bound; engagement ramp rows disappear
    entirely since the engagement is no longer a variable.
    """
    t_n = grid.n_periods
    eng = engagement.values_kw
    pv = np.asarray(realized_pv_kw, dtype=float)
    if eng.shape[0] != t_n or pv.shape[0] != t_n:
        raise ShapeError("engagement/realized PV length must match the grid")

    block = dispatch_block(pv[None, :], np.ones(1), 0, grid, policy, system)
    idx = block.index
    band = policy.deadband_kw
    block.ub[idx.production[0]] = np.minimum(policy.prod_max_kw, eng + band)
    rows = np.arange(t_n)
    a_ub = sparse_rows([(rows, idx.production[0], -1.0), (rows, idx.underdev[0], -1.0)],
                       t_n, block.c.shape[0])
    problem = QpProblem(q=block.q, c=block.c, a_ub=a_ub, b_ub=band - eng,
                        a_eq=block.a_eq, b_eq=block.b_eq, lb=block.lb, ub=block.ub,
                        comp_pairs=block.pairs)
    return problem, block.hints, idx


def oracle_control(
    engagement: EngagementPlan,
    realized_pv_kw,
    policy: TariffPolicy,
    system: SystemConfig,
    grid: TimeGrid,
) -> ControlResult:
    """Dispatch one day optimally against the realized PV.

    Raises :class:`ControlInfeasibleError` when the engagement cannot be
    honored even with the full battery, identifying the period when the
    cause is a per-period production floor.
    """
    pv = np.asarray(realized_pv_kw, dtype=float)
    problem, hints, idx = build_control_qp(engagement, pv, policy, system, grid)
    sol = solve_miqp(problem, soc_hints=hints)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NODE_LIMIT_NO_INCUMBENT):
        period = unreachable_floor_period(pv, policy, system)
        if period is not None:
            raise ControlInfeasibleError(
                f"production floor unreachable at period {period}", period=period)
        raise ControlInfeasibleError(
            "dispatch infeasible (energy-coupled: battery cannot honor the floors)")

    trace = dispatch_trace(sol.x, idx, 0, engagement.values_kw, policy.deadband_kw)
    trace.validate(grid, system)
    econ = day_economics(trace, engagement, policy, grid)
    return ControlResult(trace=trace, economics=econ, objective=sol.objective,
                         status=sol.status, solution=sol)
