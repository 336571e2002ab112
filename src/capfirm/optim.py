"""Structured convex QP engine with a complementarity branch-and-bound layer.

The problem class is deliberately narrow: diagonal quadratic cost, linear
inequality/equality systems, variable bounds, and "complementarity pairs" of
nonnegative variables of which at most one may be strictly positive (the
charge/discharge exclusivity of a battery, expressed without big-M binaries).

``solve_qp`` handles the continuous relaxation with an infeasible-start
primal-dual interior-point method (Mehrotra predictor-corrector on the
slack/bound standard form), one sparse LU factorization of the augmented
KKT system per iteration. ``solve_miqp`` adds best-bound branch-and-bound
over the pairs; when the caller passes the battery structure
(:class:`SocChainHints`), a repair step turns every almost-complementary
relaxation point into a feasible incumbent without touching the
coupling-point production.

Everything is deterministic: a fixed input yields a bit-identical solution
path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_REG = 1e-11                  # static regularization of the augmented system
_STEP_FRACTION = 0.995        # fraction-to-boundary
_MAX_ITER = 120
_TOL = 1e-9                   # scaled KKT stopping tolerance of the IPM
_PAIR_REL_TOL = 1e-6          # complementarity tolerance relative to the pair bound


class SolverError(RuntimeError):
    """Numerical breakdown that is neither infeasibility nor unboundedness."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    OPTIMAL_REPAIRED = "relaxation-optimal-repaired"
    NODE_LIMIT_INCUMBENT = "node-limit-incumbent"
    NODE_LIMIT_NO_INCUMBENT = "node-limit-no-incumbent"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class QpProblem:
    """min  sum_i q_i x_i^2 + c.x  s.t.  A x <= b, G x = h, lb <= x <= ub.

    ``q`` must be elementwise nonnegative (convexity). ``comp_pairs`` lists
    variable index pairs (i, j) that may not both be strictly positive; both
    variables must be bounded and nonnegative. The pair list order is
    meaningful: it is the deterministic tie-break order for branching.
    """

    q: np.ndarray
    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    comp_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = np.asarray(self.c).shape[0]
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.q.shape != (n,):
            raise ValueError("q and c must have the same length")
        if np.any(self.q < 0):
            raise ValueError("quadratic coefficients must be >= 0 (convexity)")
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ValueError("bounds must have the same length as c")
        # lb > ub is allowed at construction; solving reports it as infeasible
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        for mat_name, rhs_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            mat, rhs = getattr(self, mat_name), getattr(self, rhs_name)
            if mat is None:
                object.__setattr__(self, rhs_name, np.zeros(0))
                object.__setattr__(self, mat_name, sp.csr_matrix((0, n)))
                continue
            mat = sp.csr_matrix(mat, dtype=float)
            rhs = np.asarray(rhs, dtype=float)
            if mat.shape != (rhs.shape[0], n):
                raise ValueError(f"{mat_name}/{rhs_name} dimensions inconsistent")
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, rhs_name, rhs)
        pairs = tuple((int(i), int(j)) for i, j in self.comp_pairs)
        for i, j in pairs:
            if self.lb[i] < -1e-12 or self.lb[j] < -1e-12:
                raise ValueError("complementarity pair variables must be nonnegative")
            if not (np.isfinite(self.ub[i]) and np.isfinite(self.ub[j])):
                raise ValueError("complementarity pair variables must be bounded")
        object.__setattr__(self, "comp_pairs", pairs)

    @property
    def n_var(self) -> int:
        return self.c.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.dot(self.q, x * x) + np.dot(self.c, x))


@dataclass(frozen=True)
class KktResiduals:
    primal: float      # max violation of A x <= b, G x = h and bounds (scaled)
    dual: float        # stationarity residual (scaled)
    comp_gap: float    # total duality gap s.z / (1 + |objective|)


@dataclass(frozen=True)
class BnbStats:
    nodes: int = 0
    gap: float = 0.0
    repaired: bool = False


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    objective: float
    status: SolveStatus
    residuals: KktResiduals
    iterations: int = 0
    comp_violation: float = 0.0
    bnb: BnbStats = field(default_factory=BnbStats)
    message: str = ""


# ---------------------------------------------------------------------------
# standard form: fold finite bounds into inequality rows, fixed vars into
# equality rows
# ---------------------------------------------------------------------------

def _standard_form(prob: QpProblem):
    n = prob.n_var
    fixed = (np.isfinite(prob.ub) & np.isfinite(prob.lb)
             & (prob.ub - prob.lb <= 1e-14 * np.maximum(1.0, np.abs(prob.ub))))
    free_ub = np.flatnonzero(np.isfinite(prob.ub) & ~fixed)
    free_lb = np.flatnonzero(np.isfinite(prob.lb) & ~fixed)
    fix_idx = np.flatnonzero(fixed)

    rows = [prob.a_ub]
    rhs = [prob.b_ub]
    if free_ub.size:
        rows.append(sp.csr_matrix(
            (np.ones(free_ub.size), (np.arange(free_ub.size), free_ub)),
            shape=(free_ub.size, n)))
        rhs.append(prob.ub[free_ub])
    if free_lb.size:
        rows.append(sp.csr_matrix(
            (-np.ones(free_lb.size), (np.arange(free_lb.size), free_lb)),
            shape=(free_lb.size, n)))
        rhs.append(-prob.lb[free_lb])
    a_all = sp.vstack(rows, format="csr") if len(rows) > 1 else rows[0]
    b_all = np.concatenate(rhs)

    eq_rows = [prob.a_eq]
    eq_rhs = [prob.b_eq]
    if fix_idx.size:
        eq_rows.append(sp.csr_matrix(
            (np.ones(fix_idx.size), (np.arange(fix_idx.size), fix_idx)),
            shape=(fix_idx.size, n)))
        eq_rhs.append(prob.ub[fix_idx])
    g_all = sp.vstack(eq_rows, format="csr") if len(eq_rows) > 1 else eq_rows[0]
    h_all = np.concatenate(eq_rhs)
    return a_all, b_all, g_all, h_all


def _primal_violation(prob: QpProblem, x: np.ndarray) -> float:
    """Scaled worst violation of the original constraint system at x."""
    worst = 0.0
    if prob.b_ub.size:
        r = prob.a_ub @ x - prob.b_ub
        worst = max(worst, float(np.max(r)) / (1.0 + float(np.max(np.abs(prob.b_ub)))))
    if prob.b_eq.size:
        r = np.abs(prob.a_eq @ x - prob.b_eq)
        worst = max(worst, float(np.max(r)) / (1.0 + float(np.max(np.abs(prob.b_eq)))))
    lo = prob.lb - x
    hi = x - prob.ub
    for v in (lo[np.isfinite(prob.lb)], hi[np.isfinite(prob.ub)]):
        if v.size:
            worst = max(worst, float(np.max(v)) / (1.0 + float(np.max(np.abs(x)))))
    return worst


# ---------------------------------------------------------------------------
# interior point core
# ---------------------------------------------------------------------------

def _step_len(v: np.ndarray, dv: np.ndarray) -> float:
    """Fraction-to-boundary step keeping v + step * dv positive."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    with np.errstate(over="ignore", divide="ignore"):
        ratio = float(np.min(-v[neg] / dv[neg]))
    return min(1.0, _STEP_FRACTION * ratio)


def _ipm(prob: QpProblem):
    """Mehrotra predictor-corrector on the slack standard form.

    Returns (x, status, residuals, iterations). Infeasibility is *suspected*
    (never certified) here; the caller confirms with an elastic problem.
    Without inequality rows (m = 0) the first Newton step solves the
    equality-constrained QP and the second iteration accepts it.
    """
    a_all, b_all, g_all, h_all = _standard_form(prob)
    n = prob.n_var
    m = a_all.shape[0]
    p = g_all.shape[0]
    hdiag = 2.0 * prob.q
    reg = _REG * max(1.0, float(np.max(hdiag, initial=0.0)))

    # starting point: bound midpoints where available, else zero
    x = np.clip(0.0, prob.lb, prob.ub)
    both = np.isfinite(prob.lb) & np.isfinite(prob.ub)
    x[both] = 0.5 * (prob.lb[both] + prob.ub[both])
    floor = max(1.0, 1e-2 * float(np.max(np.abs(b_all), initial=0.0)))
    s = np.maximum(b_all - a_all @ x, floor)
    z = np.full(m, 1.0)
    y = np.zeros(p)

    b_scale = 1.0 + float(np.max(np.abs(b_all), initial=0.0))
    h_scale = 1.0 + float(np.max(np.abs(h_all), initial=0.0))
    c_scale = 1.0 + float(np.max(np.abs(prob.c)))
    m_mean = max(m, 1)            # mean complementarity is 0 without rows

    status = None
    it = 0
    for it in range(1, _MAX_ITER + 1):
        r_d = hdiag * x + prob.c + a_all.T @ z + (g_all.T @ y if p else 0.0)
        r_p = a_all @ x + s - b_all
        r_e = (g_all @ x - h_all) if p else np.zeros(0)
        mu = float(s @ z) / m_mean
        obj = prob.objective(x)

        rp_norm = float(np.max(np.abs(r_p), initial=0.0)) / b_scale
        re_norm = float(np.max(np.abs(r_e), initial=0.0)) / h_scale
        rd_norm = float(np.max(np.abs(r_d))) / (c_scale + float(np.max(np.abs(hdiag * x))))
        gap_rel = mu / (1.0 + abs(obj))

        if rp_norm <= _TOL and re_norm <= _TOL and rd_norm <= _TOL and gap_rel <= _TOL:
            status = SolveStatus.OPTIMAL
            break
        if (np.max(np.abs(x)) > 1e13 and obj < -1e13
                and rp_norm <= 1e-6 and re_norm <= 1e-6):
            status = SolveStatus.UNBOUNDED
            break
        if np.max(z, initial=0.0) > 1e13 or np.max(s, initial=0.0) > 1e16:
            break  # suspected infeasible; certified by the caller

        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # factor [[H + A'WA + dI, G'], [G, -dI]] with W = Z/S
                top = sp.diags(hdiag + reg)
                if m:
                    top = top + (a_all.T @ sp.diags(z / s) @ a_all).tocsr()
                if p:
                    kkt = sp.bmat([[top, g_all.T], [g_all, -reg * sp.eye(p)]],
                                  format="csc")
                else:
                    kkt = sp.csc_matrix(top)
                lu = spla.splu(kkt)

                def direction(r_c):
                    rhs_x = -(r_d + a_all.T @ ((r_c + z * r_p) / s))
                    rhs = np.concatenate([rhs_x, -r_e]) if p else rhs_x
                    sol = lu.solve(rhs)
                    # one step of iterative refinement against the regularized matrix
                    res = rhs - kkt @ sol
                    if np.max(np.abs(res)) > 1e-11 * (1.0 + np.max(np.abs(rhs))):
                        sol = sol + lu.solve(res)
                    dx = sol[:n]
                    dy = sol[n:] if p else np.zeros(0)
                    ds = -r_p - a_all @ dx
                    dz = (r_c - z * ds) / s
                    return dx, dy, ds, dz

                # predictor
                dx, dy, ds, dz = direction(-s * z)
                a_p = _step_len(s, ds)
                a_d = _step_len(z, dz)
                mu_aff = float((s + a_p * ds) @ (z + a_d * dz)) / m_mean
                sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

                # corrector
                dx, dy, ds, dz = direction(sigma * mu - s * z - ds * dz)
                a_p = _step_len(s, ds)
                a_d = _step_len(z, dz)
        except (RuntimeError, FloatingPointError):
            # SuperLU found the KKT matrix exactly singular, or the iterates
            # overflow or turn NaN: suspected infeasible, as above
            break
        if max(a_p, a_d) < 1e-12:
            break  # stalled
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        z = z + a_d * dz

    residuals = KktResiduals(
        primal=_primal_violation(prob, x),
        dual=float(np.max(np.abs(hdiag * x + prob.c + a_all.T @ z
                                 + (g_all.T @ y if p else 0.0)))) / c_scale,
        comp_gap=float(s @ z) / (1.0 + abs(prob.objective(x))),
    )
    return x, status, residuals, it


def _certify_infeasible(prob: QpProblem) -> tuple[bool, float]:
    """Minimize total elastic violation of the row constraints.

    Bounds stay hard (they are consistent by construction); every inequality
    and equality row receives a nonnegative elastic variable. A strictly
    positive optimum is a Farkas-style certificate of primal infeasibility;
    its value is returned as the certificate residual.
    """
    n = prob.n_var
    m = prob.b_ub.size
    peq = prob.b_eq.size
    if m + peq == 0:
        return False, 0.0
    n_el = m + 2 * peq
    q = np.concatenate([np.full(n, 1e-12), np.zeros(n_el)])
    c = np.concatenate([np.zeros(n), np.ones(n_el)])
    a_ub = sp.hstack([prob.a_ub,
                      -sp.eye(m, format="csr"),
                      sp.csr_matrix((m, 2 * peq))], format="csr") if m else None
    b_ub = prob.b_ub if m else None
    a_eq = sp.hstack([prob.a_eq,
                      sp.csr_matrix((peq, m)),
                      sp.eye(peq, format="csr"),
                      -sp.eye(peq, format="csr")], format="csr") if peq else None
    b_eq = prob.b_eq if peq else None
    lb = np.concatenate([prob.lb, np.zeros(n_el)])
    ub = np.concatenate([prob.ub, np.full(n_el, np.inf)])
    elastic = QpProblem(q=q, c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                        lb=lb, ub=ub)
    x, _, _, _ = _ipm(elastic)
    mass = float(np.sum(x[n:]))
    scale = 1.0 + max(float(np.max(np.abs(prob.b_ub))) if m else 0.0,
                      float(np.max(np.abs(prob.b_eq))) if peq else 0.0)
    return mass > 1e-7 * scale, mass


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the continuous relaxation (complementarity pairs are ignored).

    Raises :class:`SolverError` on numerical breakdown; infeasible and
    unbounded problems are reported through the solution status.
    """
    if np.any(problem.lb > problem.ub + 1e-12):
        return QpSolution(np.zeros(problem.n_var), np.inf, SolveStatus.INFEASIBLE,
                          KktResiduals(np.inf, np.inf, np.inf),
                          message="inconsistent bounds")
    x, status, res, it = _ipm(problem)
    if status is SolveStatus.OPTIMAL:
        return QpSolution(x, problem.objective(x), status, res, iterations=it)
    if status is SolveStatus.UNBOUNDED:
        return QpSolution(x, -np.inf, status, res, iterations=it)
    infeasible, mass = _certify_infeasible(problem)
    if infeasible:
        return QpSolution(x, np.inf, SolveStatus.INFEASIBLE, res, iterations=it,
                          message=f"elastic certificate residual {mass:.3e}")
    raise SolverError(
        f"interior point did not converge (primal {res.primal:.2e}, "
        f"dual {res.dual:.2e}, gap {res.comp_gap:.2e})")


# ---------------------------------------------------------------------------
# complementarity layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SocChainHints:
    """Battery structure needed by the simultaneous-flow repair.

    The index arrays are (S, T): row w holds scenario w's variable indices per
    period, as laid out by :func:`capfirm.planner.dispatch_index`, and
    ``pair_idx[w, t]`` is the position of that period's pair in
    ``comp_pairs``.
    """

    charge: np.ndarray
    discharge: np.ndarray
    pv_used: np.ndarray
    soc: np.ndarray
    pair_idx: np.ndarray
    eta_charge: float
    eta_discharge: float
    delta_t_hours: float
    soc_max_kwh: float
    soc_end_kwh: float


@dataclass(frozen=True)
class RepairOutcome:
    x: np.ndarray
    resolved: bool
    unresolved_pairs: tuple[int, ...]


def _pair_tols(problem: QpProblem) -> np.ndarray:
    scales = np.array([
        max(1.0, min(problem.ub[i], problem.ub[j]))
        for i, j in problem.comp_pairs]) if problem.comp_pairs else np.zeros(0)
    return _PAIR_REL_TOL * scales


def comp_violations(problem: QpProblem, x: np.ndarray) -> np.ndarray:
    """min(x_i, x_j) per complementarity pair (values below 0 clipped)."""
    if not problem.comp_pairs:
        return np.zeros(0)
    idx = np.asarray(problem.comp_pairs)
    return np.maximum(np.minimum(x[idx[:, 0]], x[idx[:, 1]]), 0.0)


def repair_simultaneous_flow(
    problem: QpProblem,
    x: np.ndarray,
    hints: SocChainHints,
) -> RepairOutcome:
    """Remove simultaneous charge/discharge from a relaxation point.

    Per violating period, in chronological order:

    1. reduce charge by ``dc`` and discharge by ``eta_cha*eta_dis*dc`` (or the
       discharge-clearing analogue), which keeps the SoC flux of the period
       exactly unchanged; the balance is paid by extra PV curtailment, so it
       is limited by the PV used in that period;
    2. any remainder is reduced symmetrically by ``d`` on both sides, which
       raises the downstream SoC by ``d*(1/eta_dis - eta_cha)*dt`` per period
       and is therefore capped by the remaining SoC headroom.

    Step 2 leaves the terminal SoC above its pinned value; a restoration pass
    sheds the surplus by substituting stored energy for curtailed PV in later
    periods. The coupling-point production is never changed, so for planning
    problems the objective of the repaired point equals the relaxation bound.
    Periods that cannot be fully repaired are reported for branching.
    """
    x = np.array(x, dtype=float)
    tols = _pair_tols(problem)
    k = hints.eta_charge * hints.eta_discharge
    coef = hints.delta_t_hours * (1.0 / hints.eta_discharge - hints.eta_charge)
    unresolved: list[int] = []

    for ci, di, pi, si, pair_idx in zip(hints.charge, hints.discharge, hints.pv_used,
                                        hints.soc, hints.pair_idx):
        horizon = ci.shape[0]
        cha = x[ci].copy()
        dis = x[di].copy()
        pv = x[pi].copy()
        soc = x[si].copy()
        excess = 0.0
        last_sym = -1
        sym_periods: list[int] = []

        for t in range(horizon):
            ctol = tols[pair_idx[t]]
            if min(cha[t], dis[t]) <= ctol:
                continue
            # stage 1: flux-preserving asymmetric reduction
            if k * cha[t] <= dis[t]:
                full_dc, full_dd = cha[t], k * cha[t]
            else:
                full_dd = dis[t]
                full_dc = dis[t] / k
            need_pv = full_dc - full_dd
            frac = 1.0 if need_pv <= pv[t] + 1e-12 else (
                pv[t] / need_pv if need_pv > 0 else 0.0)
            cha[t] -= frac * full_dc
            dis[t] -= frac * full_dd
            pv[t] = max(pv[t] - frac * need_pv, 0.0)
            cha[t] = max(cha[t], 0.0)
            dis[t] = max(dis[t], 0.0)
            if min(cha[t], dis[t]) <= ctol:
                continue
            # stage 2: symmetric reduction limited by SoC-cap headroom
            if coef <= 1e-15:
                d = min(cha[t], dis[t])
            else:
                headroom = max(hints.soc_max_kwh - float(np.max(soc[t:])), 0.0)
                d = min(cha[t], dis[t], headroom / coef)
            if d > 0.0:
                cha[t] -= d
                dis[t] -= d
                soc[t:] += coef * d
                excess += coef * d
                last_sym = t
                sym_periods.append(t)
            if min(cha[t], dis[t]) > ctol:
                unresolved.append(int(pair_idx[t]))

        # terminal restoration: shed the SoC surplus created by stage 2
        tol_soc = 1e-9 * max(1.0, hints.soc_end_kwh)
        if excess > tol_soc:
            for tau in range(max(last_sym, 0), horizon):
                if excess <= tol_soc:
                    break
                ctol = tols[pair_idx[tau]]
                if cha[tau] > ctol:
                    continue
                room = problem.ub[di[tau]] - dis[tau]
                delta = min(pv[tau], room,
                            excess * hints.eta_discharge / hints.delta_t_hours)
                if delta <= 0.0:
                    continue
                dis[tau] += delta
                pv[tau] -= delta
                shed = hints.delta_t_hours * delta / hints.eta_discharge
                soc[tau:] -= shed
                excess -= shed
            if excess > max(tol_soc, 1e-7):
                # terminal equality cannot be restored: flag the symmetric
                # periods so branch-and-bound deals with them
                unresolved.extend(int(pair_idx[t]) for t in sym_periods)

        x[ci] = cha
        x[di] = dis
        x[pi] = pv
        x[si] = soc

    unresolved_t = tuple(sorted(set(unresolved)))
    return RepairOutcome(x=x, resolved=not unresolved_t, unresolved_pairs=unresolved_t)


def solve_miqp(
    problem: QpProblem,
    node_limit: int = 1000,
    soc_hints: SocChainHints | None = None,
) -> QpSolution:
    """Branch-and-bound over complementarity pairs on top of :func:`solve_qp`.

    Relaxations violating a pair are branched by fixing one side of the
    most-violated pair to zero in each child (ties broken by pair order);
    best-bound search stops when the optimality gap falls below
    ``1e-6 * (1 + |incumbent|)`` or the node limit is reached. When hints are
    supplied, every violating relaxation point is repaired and a repaired
    point serves as an incumbent, which usually closes the gap at the root.
    """
    root = solve_qp(problem)
    if (root.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)
            or not problem.comp_pairs):
        return replace(root, bnb=BnbStats(nodes=1))

    tols = _pair_tols(problem)
    # weak duality: no feasible point lies below the root objective minus
    # the root's remaining duality gap s.z
    root_bound = root.objective
    dual_bound = root_bound - root.residuals.comp_gap * (1.0 + abs(root_bound))

    incumbent_x = None
    incumbent_obj = np.inf
    incumbent_from_repair = False
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    seq = 0

    def gap_tol(value: float) -> float:
        return 1e-6 * (1.0 + abs(value))

    def consider(x: np.ndarray, from_repair: bool) -> None:
        nonlocal incumbent_x, incumbent_obj, incumbent_from_repair
        if np.max(comp_violations(problem, x) - tols) > 0:
            return
        if _primal_violation(problem, x) > 1e-6:
            return
        obj = problem.objective(x)
        if obj < incumbent_obj - 1e-12:
            if obj < dual_bound - gap_tol(obj):
                raise SolverError("incumbent below the relaxation bound: "
                                  "weak duality violated")
            incumbent_x = x
            incumbent_obj = obj
            incumbent_from_repair = from_repair

    def visit(sol: QpSolution, node_problem: QpProblem, fixes: tuple[int, ...]) -> None:
        """Take a complementary point as incumbent, else repair it and branch."""
        nonlocal seq
        viol = comp_violations(node_problem, sol.x)
        if np.max(viol - tols) <= 0:
            consider(sol.x, from_repair=False)
            return
        if soc_hints is not None:
            outcome = repair_simultaneous_flow(node_problem, sol.x, soc_hints)
            if outcome.resolved:
                consider(outcome.x, from_repair=True)
        scaled = viol / np.maximum(tols / _PAIR_REL_TOL, 1.0)
        best = float(np.max(scaled))
        j = int(np.flatnonzero(scaled >= best - 1e-12)[0])
        i_var, j_var = problem.comp_pairs[j]
        heapq.heappush(heap, (sol.objective, seq, fixes + (i_var,)))
        heapq.heappush(heap, (sol.objective, seq + 1, fixes + (j_var,)))
        seq += 2

    nodes = 1
    visit(root, problem, ())
    best_bound = root_bound
    while heap:
        bound, _, fixes = heapq.heappop(heap)
        best_bound = bound
        if incumbent_x is not None and incumbent_obj - bound <= gap_tol(incumbent_obj):
            heap.clear()
            break
        if nodes >= node_limit:
            heapq.heappush(heap, (bound, -1, fixes))
            break
        ub = problem.ub.copy()
        ub[list(fixes)] = 0.0
        node_problem = replace(problem, ub=ub)
        sol = solve_qp(node_problem)
        nodes += 1
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        if incumbent_x is not None and sol.objective >= incumbent_obj - gap_tol(incumbent_obj):
            continue
        visit(sol, node_problem, fixes)

    if incumbent_x is None:
        if heap:
            return QpSolution(root.x, np.inf, SolveStatus.NODE_LIMIT_NO_INCUMBENT,
                              root.residuals, iterations=root.iterations,
                              comp_violation=float(np.max(comp_violations(problem, root.x))),
                              bnb=BnbStats(nodes=nodes, gap=np.inf),
                              message="node limit reached without incumbent")
        return QpSolution(root.x, np.inf, SolveStatus.INFEASIBLE, root.residuals,
                          iterations=root.iterations, bnb=BnbStats(nodes=nodes),
                          message="all branches infeasible")

    gap = max(incumbent_obj - best_bound, 0.0) if heap else 0.0
    closed = not heap or gap <= gap_tol(incumbent_obj)
    if closed:
        status = (SolveStatus.OPTIMAL_REPAIRED if incumbent_from_repair
                  else SolveStatus.OPTIMAL)
    else:
        status = SolveStatus.NODE_LIMIT_INCUMBENT
    return QpSolution(
        incumbent_x, incumbent_obj, status,
        KktResiduals(primal=_primal_violation(problem, incumbent_x),
                     dual=root.residuals.dual, comp_gap=root.residuals.comp_gap),
        iterations=root.iterations,
        comp_violation=float(np.max(comp_violations(problem, incumbent_x))),
        bnb=BnbStats(nodes=nodes, gap=gap, repaired=incumbent_from_repair))
