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
so its block starts at column 0.

With T periods and S scenarios the planning problem has ``T + 6*T*S``
variables, ``2*(T-1) + 2*T*S`` inequality rows (engagement ramps plus the
deadband rows linking production to the engagement) and ``2*T*S`` equality
rows (power balance and the SoC recursion); every variable additionally
carries finite bounds, which the solver folds into slack rows (about
``2*(T + 6*T*S)`` more). The terminal SoC is pinned to its boundary value
through its bounds.

The pv_used, charge, discharge and soc series appear in no inequality row
but their bounds, so the solver eliminates them before it factors its KKT
matrix (see :mod:`capfirm.optim`), except the ``n_fixed`` variables whose
bounds coincide (the terminal SoC, pv_used where no PV is available). The
factored matrix then has dimension ``T + 4*T*S + 2*n_fixed``: the
engagement, production and underdev columns, the ``2*T*S`` equality rows
and one column and one equality row per fixed variable. At S=20 and T=96
that is about 10,300, against 11,616 variables and 3,840 equality rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import (
    DispatchTrace,
    EngagementPlan,
    ShapeError,
    SystemConfig,
    TariffPolicy,
    TimeGrid,
    check_engagement,
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
class DispatchBlock:
    """Cost, bounds, equality rows, pairs and hints of the dispatch variables.

    The vectors span every problem variable and belong to the caller, who
    sets the engagement columns (zero cost, infinite bounds here) and may
    tighten bounds before building the problem.
    """

    index: DispatchIndex
    q: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    pairs: np.ndarray
    hints: SocChainHints


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
    family of coefficients at once.
    """
    shapes = [np.shape(rows) for rows, _, _ in entries]
    rows = np.concatenate([np.ravel(r) for r, _, _ in entries])
    cols = np.concatenate([np.ravel(cc) for _, cc, _ in entries])
    data = np.concatenate([np.broadcast_to(v, s).ravel()
                           for (_, _, v), s in zip(entries, shapes)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))


def dispatch_block(
    pv_kw: np.ndarray,
    weights: np.ndarray,
    first: int,
    grid: TimeGrid,
    policy: TariffPolicy,
    system: SystemConfig,
) -> DispatchBlock:
    """Build the dispatch part of a planning or control problem.

    ``pv_kw`` is the (S, T) PV available per scenario and ``weights`` the
    scenario probabilities; the block starts at column ``first``. Negative PV
    (scenario values may carry round-off below zero) is clipped to zero, so
    the pv_used bounds stay consistent. Equality rows come scenario-major,
    per period the power balance then the SoC recursion. The complementarity
    pairs are the (k, 2) array of (charge, discharge) columns, period-major
    (pair ``t*S + w`` is scenario w's period t), so branching ties resolve
    toward the earliest period; ``hints.pv_used`` lists each pair's pv_used
    column in the same order.
    """
    s_n, t_n = pv_kw.shape
    n = first + 6 * t_n * s_n
    idx = dispatch_index(t_n, s_n, first)
    dt = grid.delta_t_hours
    price_kwh = policy.price_eur_mwh / 1000.0
    weight = np.asarray(weights, dtype=float)[:, None]
    eta_c, eta_d = system.eta_charge, system.eta_discharge

    q = np.zeros(n)
    c = np.zeros(n)
    c[idx.production] = -weight * dt * price_kwh
    dev_coef = weight * dt * price_kwh / policy.pv_capacity_kw
    q[idx.underdev] = dev_coef
    c[idx.underdev] = 4.0 * policy.deadband_kw * dev_coef

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
    hints = SocChainHints(pv_used=idx.pv_used.T.ravel(), eta_charge=eta_c,
                          eta_discharge=eta_d)
    return DispatchBlock(index=idx, q=q, c=c, lb=lb, ub=ub, a_eq=a_eq, b_eq=b_eq,
                         pairs=pairs, hints=hints)


def dispatch_trace(x: np.ndarray, idx: DispatchIndex, scenario: int,
                   engagement_kw: np.ndarray, deadband_kw: float) -> DispatchTrace:
    """Read one scenario's dispatch out of a solution vector."""
    production = x[idx.production[scenario]]
    return DispatchTrace(
        production_kw=production,
        pv_used_kw=np.maximum(x[idx.pv_used[scenario]], 0.0),
        charge_kw=np.maximum(x[idx.charge[scenario]], 0.0),
        discharge_kw=np.maximum(x[idx.discharge[scenario]], 0.0),
        soc_kwh=x[idx.soc[scenario]],
        underdev_kw=np.maximum((engagement_kw - deadband_kw) - production, 0.0),
    )


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
    t_n = grid.n_periods
    block = dispatch_block(instance.scenarios.values_kw, instance.scenarios.weights,
                           t_n, grid, policy, instance.system)
    idx = block.index
    s_n = instance.scenarios.n_scenarios
    n = block.c.shape[0]
    band = policy.deadband_kw
    block.lb[idx.eng] = policy.eng_min_kw
    block.ub[idx.eng] = policy.eng_max_kw

    # engagement ramps (both signs), deactivated at the first period; then
    # per scenario and period the deadband rows: underdev >= (eng - band) -
    # production and production <= eng + band (overproduction is never
    # optimal: curtailment is free, so the cap eliminates it outright)
    up = 2 * np.arange(t_n - 1)
    eng_now, eng_prev = idx.eng[1:], idx.eng[:-1]
    dead = 2 * (t_n - 1) + 2 * np.arange(s_n * t_n).reshape(s_n, t_n)
    eng = np.broadcast_to(idx.eng, (s_n, t_n))
    a_ub = sparse_rows([
        (up, eng_now, 1.0), (up, eng_prev, -1.0),
        (up + 1, eng_prev, 1.0), (up + 1, eng_now, -1.0),
        (dead, eng, 1.0), (dead, idx.production, -1.0), (dead, idx.underdev, -1.0),
        (dead + 1, idx.production, 1.0), (dead + 1, eng, -1.0),
    ], 2 * (t_n - 1) + 2 * t_n * s_n, n)
    b_ub = np.concatenate([np.repeat(policy.ramp_limit_kw[1:], 2),
                           np.full(2 * t_n * s_n, band)])

    problem = QpProblem(q=block.q, c=block.c, a_ub=a_ub, b_ub=b_ub,
                        a_eq=block.a_eq, b_eq=block.b_eq, lb=block.lb, ub=block.ub,
                        comp_pairs=block.pairs)
    return problem, block.hints, idx


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

    traces = []
    for w in range(instance.scenarios.n_scenarios):
        trace = dispatch_trace(sol.x, idx, w, engagement.values_kw,
                               instance.policy.deadband_kw)
        trace.validate(instance.grid, instance.system)
        traces.append(trace)
    return PlanResult(engagement=engagement, traces=tuple(traces),
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
