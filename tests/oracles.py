"""Independent brute-force oracles used by the solver and acceptance tests.

These deliberately avoid the production solve path: projected descent with
Dykstra projections for convex QPs, multi-resolution dense grids for very
small problems, exhaustive binary enumeration for complementarity
problems (each fixed pattern is a plain convex QP), a HiGHS bracket of a
QP's optimum from a Kelley outer approximation, a one-window-at-a-time
PVUSA fit with an active-set enumeration of plain least-squares solves, a
Gaussian copula that ranks, correlates and inverts one lead time at a time,
and an engagement check that scans one period at a time.
"""

from dataclasses import replace
from itertools import product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy import special
from scipy.optimize import linprog

from capfirm import pvusa, scenarios
from capfirm.domain import EngagementCheck, EngagementViolation
from capfirm.optim import QpProblem, SolveStatus, solve_qp


def project_polyhedron(x0, a_rows, b, lb, ub, iters=60):
    """Dykstra alternating projections onto a box and a few halfspaces."""
    x = np.clip(x0, lb, ub)
    m = a_rows.shape[0]
    if m == 0:
        return x
    if np.all(a_rows @ x <= b + 1e-14):
        return x
    x = x0.copy()
    corrections = np.zeros((m + 1, x0.shape[0]))
    row_norms = np.einsum("ij,ij->i", a_rows, a_rows)
    for _ in range(iters):
        x_prev = x
        y = x + corrections[0]
        xn = np.clip(y, lb, ub)
        corrections[0] = y - xn
        x = xn
        for k in range(m):
            y = x + corrections[k + 1]
            viol = a_rows[k] @ y - b[k]
            xn = y - (viol / row_norms[k]) * a_rows[k] if viol > 0 else y
            corrections[k + 1] = y - xn
            x = xn
        if np.max(np.abs(x - x_prev)) < 1e-14:
            break
    return np.clip(x, lb, ub)


def projected_descent_qp(q, c, a_rows, b, lb, ub, iters=400):
    """Projected gradient descent for min q.x^2 + c.x over box + halfspaces.

    Requires strictly positive q (strong convexity) for reliable convergence.
    """
    q = np.asarray(q, float)
    c = np.asarray(c, float)
    a_rows = np.asarray(a_rows, float).reshape(-1, q.shape[0])
    lip = 2.0 * max(float(np.max(q)), 1e-3)
    x = project_polyhedron(np.zeros_like(q), a_rows, b, lb, ub, iters=200)
    for _ in range(iters):
        grad = 2.0 * q * x + c
        x_new = project_polyhedron(x - grad / lip, a_rows, b, lb, ub)
        if np.max(np.abs(x_new - x)) < 1e-13:
            x = x_new
            break
        x = x_new
    return x


def dense_grid_qp(q, c, a_rows, b, lb, ub, levels=6, points=15):
    """Multi-resolution dense grid search; only sensible for <= 3 variables."""
    q = np.asarray(q, float)
    n = q.shape[0]
    lo = np.asarray(lb, float).copy()
    hi = np.asarray(ub, float).copy()
    a_rows = np.asarray(a_rows, float).reshape(-1, n)
    best_x = None
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        if a_rows.shape[0]:
            ok = np.all(mesh @ a_rows.T <= b + 1e-9, axis=1)
            mesh = mesh[ok]
        if mesh.shape[0] == 0:
            break
        vals = mesh @ c + (mesh * mesh) @ q
        best_x = mesh[np.argmin(vals)]
        span = (hi - lo) / (points - 1)
        lo = np.maximum(best_x - 1.5 * span, lb)
        hi = np.minimum(best_x + 1.5 * span, ub)
    return best_x


def enumerate_miqp(problem: QpProblem):
    """Exhaustively fix each complementarity pair both ways, keep the best.

    Returns (objective, x) over all feasible fixing patterns, or
    (inf, None) when every pattern is infeasible.
    """
    pairs = problem.comp_pairs
    best_obj, best_x = np.inf, None
    for mask in range(2 ** len(pairs)):
        ub = problem.ub.copy()
        for bit, (i, j) in enumerate(pairs):
            ub[i if (mask >> bit) & 1 else j] = 0.0
        sol = solve_qp(replace(problem, ub=ub))
        if sol.status is SolveStatus.OPTIMAL and sol.objective < best_obj - 1e-12:
            best_obj, best_x = sol.objective, sol.x
    return best_obj, best_x


class Bracket(NamedTuple):
    lower: float        # the last LP's objective: no feasible point lies below it
    upper: float        # the QP objective at x, a feasible point
    x: np.ndarray       # HiGHS's point of the last LP


def highs_bracket(problem: QpProblem, rounds: int) -> Bracket:
    """Bracket the optimum of ``problem``'s relaxation with HiGHS (Kelley 1960).

    Each term ``q_i x_i^2`` with ``q_i > 0`` is replaced by a variable
    ``t_i`` above its tangents, ``t_i >= q_i (2 a x_i - a^2)``: at the start
    point of the IPM (``x_i`` clipped to its bounds at 0), then, in each of
    ``rounds`` rounds, at the point of the LP before, which
    ``scipy.optimize.linprog`` solves with HiGHS. The tangents lie below
    the convex term, so every LP's optimum is a lower bound; each LP point
    is feasible, so its QP objective is an upper bound. The complementarity
    pairs are ignored.
    """
    n = problem.n_var
    quad = np.flatnonzero(problem.q > 0)
    q = problem.q[quad]
    at = np.clip(0.0, problem.lb[quad], problem.ub[quad])
    cuts = []
    objective = np.concatenate([problem.c, np.ones(quad.size)])
    bounds = np.column_stack([np.concatenate([problem.lb, np.full(quad.size, -np.inf)]),
                              np.concatenate([problem.ub, np.full(quad.size, np.inf)])])
    a_eq = sp.hstack([problem.a_eq, sp.csr_matrix((problem.b_eq.size, quad.size))])
    for _ in range(rounds + 1):
        # q (2 a x - a^2) <= t, one row per term
        cuts.append((sp.csr_matrix((2.0 * q * at, (np.arange(quad.size), quad)),
                                   shape=(quad.size, n)), q * at * at))
        a_ub = sp.vstack([sp.hstack([problem.a_ub, sp.csr_matrix((problem.b_ub.size,
                                                                   quad.size))])]
                         + [sp.hstack([cut, -sp.eye(quad.size)]) for cut, _ in cuts],
                         format="csr")
        b_ub = np.concatenate([problem.b_ub] + [rhs for _, rhs in cuts])
        lp = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=problem.b_eq,
                     bounds=bounds, method="highs")
        if lp.status != 0:
            raise RuntimeError(f"HiGHS: {lp.message}")
        at = lp.x[quad]
    x = lp.x[:n]
    return Bracket(lower=float(lp.fun), upper=problem.objective(x), x=x)


def random_box_qp(rng, n):
    """Strictly convex random QP over a box with 4 general inequalities."""
    q = rng.uniform(0.5, 2.0, n)
    c = rng.normal(0.0, 2.0, n)
    lb = rng.uniform(-3.0, -1.0, n)
    ub = rng.uniform(1.0, 3.0, n)
    a_rows = rng.normal(0.0, 1.0, (4, n))
    interior = rng.uniform(lb + 0.1, ub - 0.1)
    b = a_rows @ interior + rng.uniform(0.1, 1.5, 4)
    return q, c, a_rows, b, lb, ub


def random_storage_miqp(rng, n_periods):
    """Small storage-shaped MIQP with genuinely conflicting flow incentives.

    Variables per period: production, pv, charge, discharge, soc. Costs are
    randomized and may reward simultaneous flows in the relaxation, so the
    complementarity layer is actually exercised.
    """
    t_n = n_periods
    n = 5 * t_n
    idx = {name: np.arange(t_n) * 5 + k
           for k, name in enumerate(("p", "pv", "cha", "dis", "soc"))}
    eta_c, eta_d = rng.uniform(0.85, 0.98, 2)
    dt = 0.5
    cap = rng.uniform(3.0, 8.0)
    soc_max = rng.uniform(2.0, 6.0)
    soc_init = rng.uniform(0.2, 0.8) * soc_max

    q = np.zeros(n)
    q[idx["p"]] = rng.uniform(0.0, 0.3, t_n)
    c = np.zeros(n)
    c[idx["p"]] = rng.normal(0.0, 1.0, t_n)
    c[idx["cha"]] = rng.normal(-0.2, 0.4, t_n)   # may reward churning
    c[idx["dis"]] = rng.normal(-0.2, 0.4, t_n)

    lb = np.zeros(n)
    ub = np.zeros(n)
    lb[idx["p"]] = -2.0
    ub[idx["p"]] = 8.0
    ub[idx["pv"]] = rng.uniform(0.0, 5.0, t_n)
    ub[idx["cha"]] = cap
    ub[idx["dis"]] = cap
    lb[idx["soc"]] = 0.0
    ub[idx["soc"]] = soc_max
    lb[idx["soc"][-1]] = soc_init
    ub[idx["soc"][-1]] = soc_init

    rows, rhs = [], []
    for t in range(t_n):
        row = np.zeros(n)
        row[idx["p"][t]] = 1.0
        row[idx["pv"][t]] = -1.0
        row[idx["dis"][t]] = -1.0
        row[idx["cha"][t]] = 1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n)
        row[idx["soc"][t]] = 1.0
        if t:
            row[idx["soc"][t - 1]] = -1.0
        row[idx["cha"][t]] = -dt * eta_c
        row[idx["dis"][t]] = dt / eta_d
        rows.append(row)
        rhs.append(0.0 if t else soc_init)
    a_eq = np.array(rows)
    b_eq = np.array(rhs)
    pairs = tuple((int(idx["cha"][t]), int(idx["dis"][t])) for t in range(t_n))
    return QpProblem(q=q, c=c, a_eq=a_eq, b_eq=b_eq, lb=lb, ub=ub,
                     comp_pairs=pairs)


def sign_constrained_ls_enumeration(design, target):
    """PVUSA least squares under a > 0, b < 0, c < 0 for one design.

    Every active set is one ``lstsq`` call with the pinned coefficients at
    their bounds; the feasible candidate with the smallest full residual
    wins, in ``product`` order, by more than 1e-15. Returns None when the
    design's singular values fail the 1e-12 rank test.
    """
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        return None
    bounds = np.array([pvusa._A_FLOOR, -pvusa._BC_FLOOR, -pvusa._BC_FLOOR])
    best, best_sse = bounds, np.inf
    for pattern in product((False, True), repeat=3):
        pinned = np.array(pattern)
        beta = bounds.copy()
        free = ~pinned
        if np.any(free):
            rhs = target - design[:, pinned] @ bounds[pinned]
            beta[free] = np.linalg.lstsq(design[:, free], rhs, rcond=None)[0]
        if beta[0] < bounds[0] or beta[1] > bounds[1] or beta[2] > bounds[2]:
            continue
        sse = float(np.sum((design @ beta - target) ** 2))
        if sse < best_sse - 1e-15:
            best, best_sse = beta, sse
    return best


def fit_pvusa_per_window(power, weather, window_hours, step_hours):
    """``pvusa.fit_pvusa``'s trajectory, one window at a time in a while loop.

    Returns ``(trajectory, windows)``: the trajectory in ``fit_pvusa``'s form,
    where a rank-deficient window repeats the previous object, and the number
    of windows the loop visited, skipped ones included.
    """
    ts = weather.timestamps
    day = weather.irradiance_wm2 > pvusa._DAYTIME_WM2
    window = np.timedelta64(int(round(window_hours * 3600)), "s")
    step = np.timedelta64(int(round(step_hours * 3600)), "s")
    trajectory, previous, windows = [], None, 0
    start = ts[0]
    while start + window <= ts[-1] + np.timedelta64(1, "s"):
        end = start + window
        windows += 1
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="right")
        sel = np.flatnonzero(day[lo:hi]) + lo
        start = start + step
        if sel.size < 3:
            continue
        irr, tmp = weather.irradiance_wm2[sel], weather.temperature_c[sel]
        design = np.column_stack([irr, irr ** 2, irr * tmp])
        beta = sign_constrained_ls_enumeration(design, power[sel])
        if beta is not None:
            previous = pvusa.PvusaParams(*beta.tolist())
        elif previous is None:
            continue
        trajectory.append((end, previous))
    return trajectory, windows


def copula_fit_reference(errors_kw, pv_capacity_kw):
    """Copula fit lead time by lead time.

    Returns the column-sorted errors, the degenerate flags, the repaired
    correlation and its Cholesky factor. Each active lead time is ranked by
    two ``searchsorted`` calls on its own sorted copy, and the degenerate
    rows and columns of the correlation are zeroed explicitly.
    """
    errors = np.asarray(errors_kw, dtype=float)
    days, t_n = errors.shape
    degenerate = errors.std(axis=0, ddof=0) < 1e-9 * pv_capacity_kw
    sorted_errors = np.empty_like(errors)
    scores = np.zeros_like(errors)
    for k in range(t_n):
        sorted_errors[:, k] = np.sort(errors[:, k])
        if not degenerate[k]:
            rank = (np.searchsorted(sorted_errors[:, k], errors[:, k], "left")
                    + np.searchsorted(sorted_errors[:, k], errors[:, k], "right")
                    + 1) / 2.0
            scores[:, k] = special.ndtri((rank - 0.5) / days)
    active = np.flatnonzero(~degenerate)
    corr = np.eye(t_n)
    if active.size >= 2:
        corr[np.ix_(active, active)] = np.corrcoef(scores[:, active], rowvar=False)
    corr = np.clip(corr, -1.0, 1.0)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    repaired = scenarios._repair_positive_definite(corr)
    return sorted_errors, degenerate, repaired, np.linalg.cholesky(repaired)


def inverse_marginals_reference(sorted_errors_kw, degenerate, u):
    """Errors at uniforms ``u`` (n x T): one ``np.interp`` per active lead time."""
    days = sorted_errors_kw.shape[0]
    grid = (np.arange(1, days + 1) - 0.5) / days
    errors = np.zeros_like(u)
    for k in np.flatnonzero(~degenerate):
        errors[:, k] = np.interp(u[:, k], grid, sorted_errors_kw[:, k])
    return errors


def scenario_values_reference(model, forecast_kw, n_scenarios, seed, pv_capacity_kw):
    """Scenario values drawn one scenario and one lead time at a time.

    Scenario w takes the next T normals of one ``default_rng(seed)``, one
    Cholesky product and one normal CDF, then each active lead time's
    ``np.interp``.
    """
    t_n = model.correlation.shape[0]
    rng = np.random.default_rng(seed)
    u = np.empty((n_scenarios, t_n))
    for w in range(n_scenarios):
        u[w] = special.ndtr(model.cholesky_factor @ rng.standard_normal(t_n))
    errors = inverse_marginals_reference(model.sorted_errors_kw, model.degenerate, u)
    return np.clip(np.asarray(forecast_kw, dtype=float) + errors, 0.0, pv_capacity_kw)


def check_engagement_reference(plan, policy):
    """The first violation of an engagement, one period at a time: the ramp
    from the previous period (none at the first), then the lower bound, then
    the upper bound."""
    p = plan.values_kw
    tol = 1e-9
    for t in range(policy.n_periods):
        if t >= 1:
            step = abs(p[t] - p[t - 1])
            if step > policy.ramp_limit_kw[t] + tol:
                return EngagementCheck(False, EngagementViolation(
                    "ramp", t, step, policy.ramp_limit_kw[t]))
        if p[t] < policy.eng_min_kw[t] - tol:
            return EngagementCheck(False, EngagementViolation(
                "lower_bound", t, p[t], policy.eng_min_kw[t]))
        if p[t] > policy.eng_max_kw[t] + tol:
            return EngagementCheck(False, EngagementViolation(
                "upper_bound", t, p[t], policy.eng_max_kw[t]))
    return EngagementCheck(True, None)
