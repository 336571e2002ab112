"""Day-ahead engagement planning as a structured QP with battery pairs.

One instance plans a single day on the tariff's time grid. The stochastic
mode ("S") couples a shared engagement profile with one dispatch recourse per
PV scenario; the deterministic modes ("D" on a point forecast, "Dstar" on the
realized PV) are the single-scenario special case of the same build.

Variable layout, shared with the intraday controller: a *dispatch block*
holds per scenario six period series in the order production, underdev,
pv_used, charge, discharge, soc, scenario after scenario, starting at a
first column. :func:`dispatch_index` is the one definition of these flat
indices. Planning puts the T engagement variables in the first columns and
the block after them; control has no engagement variables and one scenario,
so its block starts at column 0. :func:`dispatch_problem` is the one builder
of every planning and control QP, and :func:`dispatch_traces` the one
read-out of a solution, which validates every scenario's trace.

With T periods and S scenarios the planning problem has ``T + 6*T*S``
variables, ``2*(T-1) + 2*T*S`` inequality rows (engagement ramps plus the
deadband rows linking production to the engagement) and ``2*T*S`` equality
rows (power balance and the SoC recursion); every variable additionally
carries finite bounds, which the solver folds into slack rows (about
``2*(T + 6*T*S)`` more). The terminal SoC is pinned to its boundary value
through its bounds.

The pv_used, charge, discharge and soc series appear in no inequality row
but their bounds, and underdev in one deadband row besides its bound. The
fixed variables are the pv_used of a period where a scenario has no PV and
the terminal SoC. How the solver eliminates, freezes and factors these, and
the size of what it factors, is described in :mod:`capfirm.optim`'s module
note.

The battery ratio and the selling price enter the problem only through its
values (costs, bounds and right-hand sides), and for a battery of nonzero
size they change neither which bounds are finite nor which variables are
fixed. So one day's plans on one scenario set share a sparsity pattern at
every ratio and price, and the solver reuses its analysis of that pattern
(see :mod:`capfirm.optim`). Plans of different days differ only in which
pv_used are fixed, as their PV-free periods differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import (
    DispatchTrace,
    EngagementPlan,
    InvalidConfigError,
    ShapeError,
    SystemConfig,
    TariffPolicy,
    TimeGrid,
    check_engagement,
    money_coefficients,
)
from .optim import (
    QpProblem,
    QpSolution,
    SocChainHints,
    SolveStatus,
    solve_miqp,
)
from .scenarios import ScenarioSet

MODES = ("S", "D", "Dstar")


class PlanningError(RuntimeError):
    """Planning failed; carries the first violated structural constraint."""

    def __init__(self, message: str, kind: str = "unknown", period: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.period = period


@dataclass(frozen=True)
class PlanningInstance:
    grid: TimeGrid
    policy: TariffPolicy
    system: SystemConfig
    scenarios: ScenarioSet
    mode: str = "S"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.scenarios.n_periods != self.grid.n_periods:
            raise ShapeError("scenario matrix width must equal the grid length")
        if self.policy.n_periods != self.grid.n_periods:
            raise ShapeError("policy length must equal the grid length")
        if self.mode in ("D", "Dstar"):
            if self.scenarios.n_scenarios != 1 or abs(self.scenarios.weights[0] - 1.0) > 1e-12:
                raise ValueError("deterministic modes take exactly one scenario of weight 1")


@dataclass(frozen=True)
class DispatchIndex:
    """Flat variable indices of a dispatch problem (see module docstring).

    ``eng`` lists the engagement columns ahead of the block (none in
    control); every dispatch series is an (S, T) array.
    """

    eng: np.ndarray
    production: np.ndarray
    underdev: np.ndarray
    pv_used: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    soc: np.ndarray


@dataclass(frozen=True)
class PlanResult:
    engagement: EngagementPlan
    traces: tuple[DispatchTrace, ...]
    objective: float
    status: SolveStatus
    solution: QpSolution


def dispatch_index(n_periods: int, n_scenarios: int, first: int) -> DispatchIndex:
    """Indices of a dispatch block starting at column ``first``."""
    t_n = n_periods
    base = first + 6 * t_n * np.arange(n_scenarios)[:, None] + np.arange(t_n)[None, :]
    return DispatchIndex(np.arange(first), *(base + k * t_n for k in range(6)))


def sparse_rows(entries, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """CSR matrix from (row indices, column indices, values) triples.

    The values broadcast against the index arrays, so one triple sets a whole
    family of coefficients at once. A (row, column) given twice, which the
    COO conversion would sum, raises ``ValueError``: no coefficient here is a
    sum.
    """
    if not entries:
        return sp.csr_matrix((n_rows, n_cols))
    rows = np.concatenate([np.ravel(r) for r, _, _ in entries])
    cols = np.concatenate([np.ravel(cc) for _, cc, _ in entries])
    data = np.concatenate([np.broadcast_to(v, np.shape(r)).ravel()
                           for r, _, v in entries])
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
    if mat.nnz < data.size:
        raise ValueError("a (row, column) entry is given twice")
    return mat


def dispatch_problem(
    idx: DispatchIndex,
    pv_kw: np.ndarray,
    weights: np.ndarray,
    grid: TimeGrid,
    policy: TariffPolicy,
    system: SystemConfig,
    rows,
    b_ub: np.ndarray,
    bounds: tuple,
) -> tuple[QpProblem, SocChainHints]:
    """Build a planning or control problem around the dispatch block at ``idx``.

    ``pv_kw`` is the (S, T) PV per scenario, clipped at zero (round-off may
    put it below), and ``weights`` the scenario probabilities. The columns
    ahead of the block get zero cost and infinite bounds. The inequality rows
    ``rows`` are :func:`sparse_rows` triples, with right-hand sides ``b_ub``,
    and may name any column of ``idx``, engagement included; the one
    ``(columns, lower, upper)`` override ``bounds`` applies after the block's
    own bounds. Equality rows come scenario-major, per period the power
    balance then the SoC recursion. The (charge, discharge) pairs are
    period-major (pair ``t*S + w`` is scenario w's period t), so branching
    ties resolve toward the earliest period; ``hints.pv_used`` follows the
    same order. ``policy`` and ``system`` must state one PV capacity, to
    1e-12 relative, else ``InvalidConfigError``.
    """
    cap = policy.pv_capacity_kw
    if abs(system.pv_capacity_kw - cap) > 1e-12 * max(cap, system.pv_capacity_kw):
        raise InvalidConfigError(f"system PV capacity {system.pv_capacity_kw} kW "
                                 f"differs from the tender's {cap} kW")
    s_n, t_n = pv_kw.shape
    n = idx.eng.size + 6 * t_n * s_n
    dt = grid.delta_t_hours
    revenue, penalty = money_coefficients(policy, grid)
    weight = np.asarray(weights, dtype=float)[:, None]
    eta_c, eta_d = system.eta_charge, system.eta_discharge

    q = np.zeros(n)
    c = np.zeros(n)
    c[idx.production] = -weight * revenue
    q[idx.underdev] = weight * penalty
    c[idx.underdev] = 4.0 * policy.deadband_kw * q[idx.underdev]

    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    lb[idx.production] = policy.prod_min_kw
    ub[idx.production] = policy.prod_max_kw
    lb[idx.underdev] = 0.0
    lb[idx.pv_used] = 0.0
    ub[idx.pv_used] = np.clip(pv_kw, 0.0, None)
    lb[idx.charge] = 0.0
    ub[idx.charge] = system.charge_power_kw
    lb[idx.discharge] = 0.0
    ub[idx.discharge] = system.discharge_power_kw
    lb[idx.soc] = system.bess_min_kwh
    ub[idx.soc] = system.soc_max_kwh
    lb[idx.soc[:, -1]] = system.soc_end_kwh
    ub[idx.soc[:, -1]] = system.soc_end_kwh
    columns, lower, upper = bounds
    lb[columns] = lower
    ub[columns] = upper

    balance = 2 * np.arange(s_n * t_n).reshape(s_n, t_n)
    soc_row = balance + 1
    a_eq = sparse_rows([
        (balance, idx.production, 1.0),
        (balance, idx.pv_used, -1.0),
        (balance, idx.discharge, -1.0),
        (balance, idx.charge, 1.0),
        (soc_row, idx.soc, 1.0),
        (soc_row, idx.charge, -dt * eta_c),
        (soc_row, idx.discharge, dt / eta_d),
        (soc_row[:, 1:], idx.soc[:, :-1], -1.0),
    ], 2 * t_n * s_n, n)
    b_eq = np.zeros(2 * t_n * s_n)
    b_eq[soc_row[:, 0]] = system.soc_init_kwh

    pairs = np.stack((idx.charge.T.ravel(), idx.discharge.T.ravel()), axis=1)
    problem = QpProblem(q=q, c=c, a_ub=sparse_rows(rows, b_ub.size, n), b_ub=b_ub,
                        a_eq=a_eq, b_eq=b_eq, lb=lb, ub=ub, comp_pairs=pairs)
    hints = SocChainHints(pv_used=idx.pv_used.T.ravel(), eta_charge=eta_c,
                          eta_discharge=eta_d)
    return problem, hints


def dispatch_traces(x: np.ndarray, idx: DispatchIndex, grid: TimeGrid,
                    system: SystemConfig) -> tuple[DispatchTrace, ...]:
    """Read every scenario's dispatch out of a solution vector, validated.

    Each trace must meet balance, SoC recursion and bounds to 1e-6
    (:meth:`~capfirm.domain.DispatchTrace.validate`), which raises otherwise.
    """
    traces = tuple(
        DispatchTrace(production_kw=x[p], pv_used_kw=np.maximum(x[u], 0.0),
                      charge_kw=np.maximum(x[c], 0.0),
                      discharge_kw=np.maximum(x[d], 0.0), soc_kwh=x[s])
        for p, u, c, d, s in zip(idx.production, idx.pv_used, idx.charge,
                                 idx.discharge, idx.soc))
    for trace in traces:
        trace.validate(grid, system)
    return traces


def unreachable_floor_period(pv_kw: np.ndarray, policy: TariffPolicy,
                             system: SystemConfig) -> int | None:
    """First period whose production floor is out of reach, else None.

    A floor is out of reach when it exceeds the least PV of the period plus
    the full discharge power.
    """
    pv_min = np.min(np.atleast_2d(pv_kw), axis=0)
    short = policy.prod_min_kw > pv_min + system.discharge_power_kw + 1e-9
    return int(np.argmax(short)) if short.any() else None


def build_planning_qp(
    instance: PlanningInstance,
) -> tuple[QpProblem, SocChainHints, DispatchIndex]:
    """Assemble the day-ahead problem; see the module docstring for sizes."""
    grid, policy = instance.grid, instance.policy
    t_n, s_n = grid.n_periods, instance.scenarios.n_scenarios
    idx = dispatch_index(t_n, s_n, t_n)

    # engagement ramps (both signs), deactivated at the first period; then
    # per scenario and period the deadband rows: underdev >= (eng - band) -
    # production and production <= eng + band (overproduction is never
    # optimal: curtailment is free, so the cap eliminates it outright)
    up = 2 * np.arange(t_n - 1)
    eng_now, eng_prev = idx.eng[1:], idx.eng[:-1]
    dead = 2 * (t_n - 1) + 2 * np.arange(s_n * t_n).reshape(s_n, t_n)
    eng = np.broadcast_to(idx.eng, (s_n, t_n))
    rows = [
        (up, eng_now, 1.0), (up, eng_prev, -1.0),
        (up + 1, eng_prev, 1.0), (up + 1, eng_now, -1.0),
        (dead, eng, 1.0), (dead, idx.production, -1.0), (dead, idx.underdev, -1.0),
        (dead + 1, idx.production, 1.0), (dead + 1, eng, -1.0),
    ]
    b_ub = np.concatenate([np.repeat(policy.ramp_limit_kw[1:], 2),
                           np.full(2 * t_n * s_n, policy.deadband_kw)])
    problem, hints = dispatch_problem(
        idx, instance.scenarios.values_kw, instance.scenarios.weights, grid, policy,
        instance.system, rows, b_ub, (idx.eng, policy.eng_min_kw, policy.eng_max_kw))
    return problem, hints, idx


def _diagnose_infeasibility(instance: PlanningInstance) -> tuple[str, int | None]:
    """Point at the first structurally impossible period, if identifiable."""
    grid, policy = instance.grid, instance.policy
    period = unreachable_floor_period(instance.scenarios.values_kw, policy,
                                      instance.system)
    if period is not None:
        return ("production floor above PV plus discharge power", period)
    lo = policy.eng_min_kw.copy()
    hi = policy.eng_max_kw.copy()
    for t in range(1, grid.n_periods):
        lo[t] = max(lo[t], lo[t - 1] - policy.ramp_limit_kw[t])
        hi[t] = min(hi[t], hi[t - 1] + policy.ramp_limit_kw[t])
        if lo[t] > hi[t] + 1e-9:
            return ("engagement bounds unreachable under ramp limits", t)
    return ("energy-coupled infeasibility (battery cannot honor the floors)", None)


def plan(instance: PlanningInstance) -> PlanResult:
    """Solve the day-ahead problem and return a verified plan.

    The returned engagement always satisfies the tender ramp/bound rules and
    every per-scenario trace satisfies balance, SoC recursion and bounds to
    1e-6; violations raise instead of returning silently wrong plans. Every
    incumbent of :func:`~capfirm.optim.solve_miqp` meets charge/discharge
    exclusivity to ``1e-6 * max(1, pair bound)``, so it is not checked again.
    """
    problem, hints, idx = build_planning_qp(instance)
    sol = solve_miqp(problem, soc_hints=hints)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.NODE_LIMIT_NO_INCUMBENT):
        kind, period = _diagnose_infeasibility(instance)
        raise PlanningError(f"planning failed ({sol.status.value}): {kind}",
                            kind=kind, period=period)

    engagement = EngagementPlan(sol.x[idx.eng])
    verdict = check_engagement(engagement, instance.policy)
    if not verdict.ok:
        raise PlanningError(
            f"solver returned an engagement violating {verdict.violation.kind} "
            f"at period {verdict.violation.period}",
            kind=verdict.violation.kind, period=verdict.violation.period)

    traces = dispatch_traces(sol.x, idx, instance.grid, instance.system)
    return PlanResult(engagement=engagement, traces=traces,
                      objective=sol.objective, status=sol.status, solution=sol)


def plan_deterministic(
    profile_kw,
    grid: TimeGrid,
    policy: TariffPolicy,
    system: SystemConfig,
    mode: str = "D",
) -> PlanResult:
    """Single-scenario wrapper: D plans on a forecast, Dstar on measurements."""
    if mode not in ("D", "Dstar"):
        raise ValueError("deterministic planning mode must be 'D' or 'Dstar'")
    profile = np.asarray(profile_kw, dtype=float)
    instance = PlanningInstance(
        grid=grid, policy=policy, system=system,
        scenarios=ScenarioSet.single(np.clip(profile, 0.0, policy.pv_capacity_kw)),
        mode=mode)
    return plan(instance)
