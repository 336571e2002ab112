"""Structured convex QP engine with a complementarity branch-and-bound layer.

The problem class is deliberately narrow: diagonal quadratic cost, linear
inequality/equality systems, variable bounds, and "complementarity pairs" of
nonnegative variables of which at most one may be strictly positive (the
charge/discharge exclusivity of a battery, expressed without big-M binaries).

``solve_qp`` handles the continuous relaxation with an infeasible-start
primal-dual interior-point method (Mehrotra predictor-corrector on the
slack/bound standard form). Its Newton system is the augmented KKT system
``[[H + A'WA + dI, G'], [G, -dI]]``. A variable whose rows of A are only its
own bounds has a diagonal row in ``H + A'WA + dI``, so it is eliminated in
closed form before factoring: with E these variables, R the others and
``D_E`` their pivots, the factored matrix is
``[[H_RR + A_R'WA_R + dI, G_R'], [G_R, -dI - G_E D_E^-1 G_E']]``, and
``dx_E`` follows from ``dy`` by one division. In a planning problem E holds
the PV used, charge, discharge and SoC series (7,680 of 11,616 variables at
S=20). Fixed variables (equality rows of the standard form) and free ones
have no bound row, so their pivot would be ``H_jj + d`` alone (``d`` for a
fixed SoC), and they stay in R. The sparsity pattern is fixed for a solve:
it is built once, and each iteration only fills in its values. The matrix
is quasi-definite, so SuperLU factors it with a symmetric
fill-reducing ordering and no pivoting, which keeps the fill linear in the
number of scenarios. The ordering is computed once per solve, by the first
factorization; later iterations fill the matrix already permuted by it and
factor in natural order. SuperLU runs with panels one column wide. The
static regularization ``d`` keeps the pivots clear of zero, so each Newton
direction is one solve with that factorization, without refinement. An
iteration is redone once with partial pivoting when its unpivoted
factorization meets an exact zero pivot, or when its step collapses (both
step lengths below ``_MIN_STEP``): near the end an unpivoted direction can
blow up although no pivot is zero. Both are counted in
``QpSolution.refactors``. A floor on the corrector's centering target keeps
the total gap ``s.z`` at or above a tenth of the stopping tolerance, where
the direction still meets the linearized stationarity, so it needs no
correction step.

The duals of the inequality rows start at ``max|c|`` (1 when ``c = 0``),
after Mehrotra (1992), rather than at 1. The planning and control problems
at a selling price ``p`` are ``p`` times one fixed problem, and their
optimal duals scale with ``p``. Started on that scale, the iterates of the
problem at every price are the same up to the factor ``p``: the Newton
system, the step lengths and the centering are invariant when ``q``, ``c``,
``z`` and ``y`` scale together. This is near, not exact, homogeneity. The
regularization ``d`` is ``1e-9 * max(1, max 2q)``, which does not scale when
``max 2q < 1``, and the ``1 +`` terms of the stopping tests and of the
centering floor do not scale either. So the iteration counts can still
differ by one across prices, and a non-unique optimum can still be left at
slightly different points. Without this start, the early iterations are
spent reconciling a dual of size 1 with a cost of size ``max|c|``.

``solve_miqp`` adds best-bound branch-and-bound over the pairs. Each pair is
a row (charge, discharge) of ``QpProblem.comp_pairs``. When the caller
passes the battery structure (:class:`SocChainHints`: the PV-used variable
of each pair's period, aligned with those rows, and the two efficiencies),
a one-stage repair, the flux-preserving reduction paid for by PV
curtailment, turns a relaxation point into a feasible incumbent without
touching the coupling-point production; a pair it cannot clear is left to
branching.

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

_REG = 1e-9                   # static regularization of the augmented system
_STEP_FRACTION = 0.995        # fraction-to-boundary
_MIN_STEP = 1e-12             # a shorter primal and dual step has stalled
_MAX_ITER = 120
_TOL = 1e-9                   # scaled KKT stopping tolerance of the IPM
_PAIR_REL_TOL = 1e-6          # complementarity tolerance relative to the pair bound


class SolverError(RuntimeError):
    """Numerical breakdown of a problem that is not certified infeasible."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    NODE_LIMIT_INCUMBENT = "node-limit-incumbent"
    NODE_LIMIT_NO_INCUMBENT = "node-limit-no-incumbent"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class QpProblem:
    """min  sum_i q_i x_i^2 + c.x  s.t.  A x <= b, G x = h, lb <= x <= ub.

    ``q`` must be elementwise nonnegative (convexity). ``comp_pairs`` holds
    variable index pairs (i, j) that may not both be strictly positive, one
    per row of a read-only (k, 2) index array copied from the argument; both
    variables must be bounded and nonnegative. The row order is meaningful:
    it is the deterministic tie-break order for branching.
    """

    q: np.ndarray
    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    comp_pairs: np.ndarray = ()

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
        pairs = np.array(self.comp_pairs, dtype=np.intp).reshape(-1, 2)
        if np.any(self.lb[pairs] < -1e-12):
            raise ValueError("complementarity pair variables must be nonnegative")
        if not np.all(np.isfinite(self.ub[pairs])):
            raise ValueError("complementarity pair variables must be bounded")
        pairs.setflags(write=False)
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
    refactors: int = 0        # iterations redone with pivoting: zero pivot or stall
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


def _csc_pattern(keys: np.ndarray, dim: int) -> sp.csc_matrix:
    """Square CSC matrix with zero values at the sorted keys ``col * dim + row``."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // dim, minlength=dim))])
    return sp.csc_matrix((np.zeros(keys.size), (keys % dim).astype(np.intc),
                          indptr.astype(np.intc)), shape=(dim, dim))


def _row_pairs(indptr: np.ndarray, counts: np.ndarray):
    """Every ordered pair of stored entries within each row of a CSR matrix.

    ``counts`` gives the number of entries to pair in each row (0 skips the
    row). Returns the row of each pair and the positions of its two entries.
    """
    counts = counts.astype(np.int64)
    sq = counts * counts
    row = np.repeat(np.arange(counts.size), sq)
    j = np.arange(int(sq.sum())) - np.repeat(np.cumsum(sq) - sq, sq)
    start = indptr[row]
    return row, start + j // counts[row], start + j % counts[row]


class _KktAssembler:
    """Fixed CSC pattern of the condensed KKT matrix of ``_ipm``.

    The Newton system is ``K [dx; dy] = [r1; r2]`` with
    ``K = [[diag(d) + A'WA, G'], [G, -reg I]]``. A variable that has at least
    one row of A and is the only entry of each of them (its bound rows) meets
    the rest of K only in G, and its pivot ``D_j = d_j + sum_k w_k a_kj^2``
    is known in closed form. These variables, E, are eliminated; with R the
    others, the factored matrix is the Schur complement of their diagonal
    block, ``[[diag(d_R) + A_R'WA_R, G_R'], [G_R, -reg I - G_E D_E^-1 G_E']]``,
    which is K itself when no variable qualifies. A fixed variable (an
    equality row of the standard form) and a free one have no bound row, so
    they stay in R: their pivot would be ``d_j`` alone, as small as ``reg``.

    Calling it with the row weights ``w`` fills the matrix with one
    ``np.bincount``: every contribution (the diagonal ``d_R``, each product
    ``a_ki a_kl`` of a row of A, each product ``g_ri g_si`` of a column of G
    on E, the entries of G_R and G_R', and ``-reg``) has a precomputed slot
    in the pattern; the products of A are scaled by ``w``, those of G by
    ``-1/D``. Every call returns the same matrix object with new values,
    until :meth:`permute` moves the slots. :meth:`condense` and
    :meth:`expand` take a right-hand side to the condensed system and its
    solution back to ``(dx, dy)``, with the pivots of the last call.
    """

    def __init__(self, a_all: sp.csr_matrix, g_t: sp.csr_matrix, d: np.ndarray,
                 reg: float):
        n, p = g_t.shape
        counts = np.diff(a_all.indptr)
        alone = np.repeat(counts == 1, counts)     # the only entry of its row
        elim = np.zeros(n, dtype=bool)
        elim[a_all.indices[alone]] = True
        elim[a_all.indices[~alone]] = False
        self.keep = np.flatnonzero(~elim)
        self._n_r = n_r = self.keep.size
        col = np.cumsum(~elim) - 1      # column of a retained variable
        self._dim = dim = n_r + p
        self._g_t, self._g = g_t, g_t.T
        self._d = d
        self._e_mask = elim.astype(float)

        # the rows of A on an eliminated variable add to its pivot only
        on_e = elim[a_all.indices]
        self._e_var = a_all.indices[on_e]
        self._e_row = np.repeat(np.arange(counts.size), counts)[on_e]
        self._e_sq = a_all.data[on_e] ** 2
        pair_counts = counts.copy()
        pair_counts[self._e_row] = 0
        self._pair_row, e1, e2 = _row_pairs(a_all.indptr, pair_counts)
        self._a_prod = a_all.data[e1] * a_all.data[e2]
        g_counts = np.diff(g_t.indptr)
        self._g_pair_var, f1, f2 = _row_pairs(g_t.indptr, g_counts * elim)
        self._g_prod = g_t.data[f1] * g_t.data[f2]

        g_var = np.repeat(np.arange(n), g_counts)
        on_r = ~elim[g_var]
        g_row, g_col, g_val = n_r + g_t.indices[on_r], col[g_var[on_r]], g_t.data[on_r]
        r_rng, p_rng = np.arange(n_r), np.arange(n_r, dim)
        rows = np.concatenate([r_rng, g_row, g_col, p_rng, col[a_all.indices[e1]],
                               n_r + g_t.indices[f1]])
        cols = np.concatenate([r_rng, g_col, g_row, p_rng, col[a_all.indices[e2]],
                               n_r + g_t.indices[f2]])
        keys, self._slot = np.unique(cols.astype(np.int64) * dim + rows,
                                     return_inverse=True)
        self._n_fixed = n_r + 2 * g_val.size + p
        self._values = np.concatenate([d[self.keep], g_val, g_val, np.full(p, -reg),
                                       self._a_prod, self._g_prod])
        self._kkt = _csc_pattern(keys, dim)

    def __call__(self, w: np.ndarray) -> sp.csc_matrix:
        # 1/D on E and 0 on R
        self._inv = self._e_mask / (self._d + np.bincount(
            self._e_var, weights=w[self._e_row] * self._e_sq, minlength=self._d.size))
        k = self._n_fixed + self._a_prod.size
        np.multiply(w[self._pair_row], self._a_prod, out=self._values[self._n_fixed:k])
        np.multiply(-self._inv[self._g_pair_var], self._g_prod, out=self._values[k:])
        self._kkt.data = np.bincount(self._slot, weights=self._values,
                                    minlength=self._kkt.nnz)
        return self._kkt

    def condense(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Right-hand side ``[r1_R; r2 - G_E (r1_E / D_E)]`` of the condensed system."""
        return np.concatenate([r1[self.keep], r2 - self._g @ (self._inv * r1)])

    def expand(self, sol: np.ndarray, r1: np.ndarray):
        """``(dx, dy)`` of the whole system, ``dx_E = (r1_E - G_E' dy) / D_E``."""
        dy = sol[self._n_r:]
        dx = self._inv * (r1 - self._g_t @ dy)
        dx[self.keep] = sol[:self._n_r]
        return dx, dy

    def permute(self, perm: np.ndarray) -> None:
        """Move entry (r, c) to (perm[r], perm[c]) in every later call.

        The later matrices are ``P K P'`` with ``(P v)[perm[r]] = v[r]``, so
        ``K x = b`` is solved as ``P K P' y = b[argsort(perm)]``,
        ``x = y[perm]``.
        """
        dim = self._dim
        counts = np.diff(self._kkt.indptr)
        cols = np.repeat(perm.astype(np.int64), counts)
        keys = cols * dim + perm[self._kkt.indices]
        order = np.argsort(keys)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self._slot = rank[self._slot]
        self._kkt = _csc_pattern(keys[order], dim)


def _splu_symmetric(kkt: sp.csc_matrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """LU of the quasi-definite KKT matrix without pivoting.

    A symmetric fill-reducing ordering of ``K + K'`` keeps the fill linear in
    the number of scenarios. ``_ipm`` takes it from its first factorization
    and factors the later, symmetrically permuted matrices in ``NATURAL``
    order, with the same fill. Panels one column wide suit the few non-zeros
    per column of L and U (about 7): on the S=20 planning KKT they take
    about 40 % less factor time than SuperLU's default width. The diagonal
    pivots of a quasi-definite matrix are nonzero in exact arithmetic but can
    still hit zero in floating point, in which case SuperLU raises
    ``RuntimeError`` and the caller refactors.
    """
    return spla.splu(kkt, permc_spec=permc_spec, diag_pivot_thresh=0.0, panel_size=1,
                     options=dict(SymmetricMode=True))


def _ipm(prob: QpProblem):
    """Mehrotra predictor-corrector on the slack standard form.

    Each Newton direction is one solve with the condensed KKT matrix of
    :class:`_KktAssembler`: the variables whose only rows of A are their
    bounds are eliminated in closed form, and fixed and free variables,
    which have no bound row and so no pivot but the regularization, are not.
    Returns (x, status, residuals, iterations, refactors), where
    ``refactors`` counts the iterations redone with partial pivoting: their
    symmetric factorization met an exact zero pivot, or their step stalled.
    The duals start at ``max|c|`` (see the module note). Infeasibility is
    *suspected* (never certified) here; the caller confirms with an elastic
    problem. Without inequality rows (m = 0) the first Newton step solves the
    equality-constrained QP and the second iteration accepts it.
    """
    a_all, b_all, g_all, h_all = _standard_form(prob)
    a_t = a_all.T.tocsr()
    g_t = g_all.T.tocsr()
    m = a_all.shape[0]
    p = g_all.shape[0]
    hdiag = 2.0 * prob.q
    reg = _REG * max(1.0, float(np.max(hdiag, initial=0.0)))
    assemble = _KktAssembler(a_all, g_t, hdiag + reg, reg)
    perm = inv = None   # the first symmetric factorization's ordering

    # starting point: bound midpoints where available, else zero
    x = np.clip(0.0, prob.lb, prob.ub)
    both = np.isfinite(prob.lb) & np.isfinite(prob.ub)
    x[both] = 0.5 * (prob.lb[both] + prob.ub[both])
    floor = max(1.0, 1e-2 * float(np.max(np.abs(b_all), initial=0.0)))
    s = np.maximum(b_all - a_all @ x, floor)
    # duals on the scale of the cost: a problem and its multiples by a price
    # then start, and move, alike
    z = np.full(m, float(np.max(np.abs(prob.c), initial=0.0)) or 1.0)
    y = np.zeros(p)

    b_scale = 1.0 + float(np.max(np.abs(b_all), initial=0.0))
    h_scale = 1.0 + float(np.max(np.abs(h_all), initial=0.0))
    c_scale = 1.0 + float(np.max(np.abs(prob.c)))
    m_mean = max(m, 1)            # mean complementarity is 0 without rows

    status = None
    it = 0
    refactors = 0
    for it in range(1, _MAX_ITER + 1):
        r_d = hdiag * x + prob.c + a_t @ z + g_t @ y
        r_p = a_all @ x + s - b_all
        r_e = g_all @ x - h_all
        mu = float(s @ z) / m_mean
        obj = prob.objective(x)

        rp_norm = float(np.max(np.abs(r_p), initial=0.0)) / b_scale
        re_norm = float(np.max(np.abs(r_e), initial=0.0)) / h_scale
        rd_norm = float(np.max(np.abs(r_d))) / (c_scale + float(np.max(np.abs(hdiag * x))))
        gap_rel = mu / (1.0 + abs(obj))

        if rp_norm <= _TOL and re_norm <= _TOL and rd_norm <= _TOL and gap_rel <= _TOL:
            status = SolveStatus.OPTIMAL
            break
        if np.max(z, initial=0.0) > 1e13 or np.max(s, initial=0.0) > 1e16:
            break  # suspected infeasible; certified by the caller

        pivoted = False
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # factor [[H + A'WA + dI, G'], [G, -dI]] with W = Z/S
                kkt = assemble(z / s)
                try:
                    lu = (_splu_symmetric(kkt) if perm is None
                          else _splu_symmetric(kkt, "NATURAL"))
                except RuntimeError:
                    # exact zero pivot: refactor with partial pivoting
                    lu, pivoted = spla.splu(kkt), True

                def direction(r_c):
                    r1 = -(r_d + a_t @ ((r_c + z * r_p) / s))
                    rhs = assemble.condense(r1, -r_e)
                    sol = lu.solve(rhs) if perm is None else lu.solve(rhs[inv])[perm]
                    # SuperLU does not raise on NaN, and a NaN step passes
                    # every later comparison unnoticed
                    if not np.isfinite(sol).all():
                        raise FloatingPointError("non-finite Newton direction")
                    dx, dy = assemble.expand(sol, r1)
                    ds = -r_p - a_all @ dx
                    return dx, dy, ds, (r_c - z * ds) / s

                while True:
                    # predictor
                    dx, dy, ds, dz = direction(-s * z)
                    a_p = _step_len(s, ds)
                    a_d = _step_len(z, dz)
                    mu_aff = float((s + a_p * ds) @ (z + a_d * dz)) / m_mean
                    sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

                    # corrector. Without a floor on the centering target, the
                    # last iterations drive the mean gap toward 1e-17, where W
                    # spans so many orders of magnitude that the direction
                    # misses stationarity by more than r_d and the step
                    # collapses; the floor holds the total gap s.z at or
                    # above a tenth of the stopping tolerance.
                    target = max(sigma * mu, 0.1 * _TOL * (1.0 + abs(obj)) / m_mean)
                    dx, dy, ds, dz = direction(target - s * z - ds * dz)
                    a_p = _step_len(s, ds)
                    a_d = _step_len(z, dz)
                    if max(a_p, a_d) >= _MIN_STEP or pivoted:
                        break
                    # a stalled step from the unpivoted factorization: its
                    # direction can be huge although no pivot is zero, so
                    # redo the iteration once with partial pivoting
                    lu, pivoted = spla.splu(kkt), True
        except (RuntimeError, FloatingPointError):
            # the pivoted factorization too found the KKT matrix exactly
            # singular, or the step overflows or turns NaN: suspected
            # infeasible, as above
            break
        finally:
            refactors += pivoted
        if perm is None and not pivoted:
            # the pattern is fixed, so the ordering is too: fill the later
            # matrices in its order and factor them without reordering
            perm, inv = lu.perm_c, np.argsort(lu.perm_c)
            assemble.permute(perm)
        if max(a_p, a_d) < _MIN_STEP:
            break  # stalled after a pivoted factorization too
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        z = z + a_d * dz

    residuals = KktResiduals(
        primal=_primal_violation(prob, x),
        dual=float(np.max(np.abs(hdiag * x + prob.c + a_t @ z + g_t @ y))) / c_scale,
        comp_gap=float(s @ z) / (1.0 + abs(prob.objective(x))),
    )
    return x, status, residuals, it, refactors


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
    x = _ipm(elastic)[0]
    mass = float(np.sum(x[n:]))
    scale = 1.0 + max(float(np.max(np.abs(prob.b_ub))) if m else 0.0,
                      float(np.max(np.abs(prob.b_eq))) if peq else 0.0)
    return mass > 1e-7 * scale, mass


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the continuous relaxation (complementarity pairs are ignored).

    Infeasible problems are reported through the solution status, with an
    elastic certificate. Raises :class:`SolverError` when the interior point
    does not converge on a problem that is not certified infeasible; the QPs
    this package builds are bounded, and an unbounded one ends here too.
    """
    if np.any(problem.lb > problem.ub + 1e-12):
        return QpSolution(np.zeros(problem.n_var), np.inf, SolveStatus.INFEASIBLE,
                          KktResiduals(np.inf, np.inf, np.inf),
                          message="inconsistent bounds")
    x, status, res, it, refactors = _ipm(problem)
    if status is SolveStatus.OPTIMAL:
        return QpSolution(x, problem.objective(x), status, res, iterations=it,
                          refactors=refactors)
    infeasible, mass = _certify_infeasible(problem)
    if infeasible:
        return QpSolution(x, np.inf, SolveStatus.INFEASIBLE, res, iterations=it,
                          refactors=refactors,
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

    The pairs of ``QpProblem.comp_pairs`` are (charge, discharge) variables
    of one battery period; ``pv_used[k]`` is the PV-used variable of the
    period of pair k, whose power balance a repair of that pair pays into.
    """

    pv_used: np.ndarray
    eta_charge: float
    eta_discharge: float


@dataclass(frozen=True)
class RepairOutcome:
    x: np.ndarray
    resolved: bool


def _pair_tols(problem: QpProblem) -> np.ndarray:
    i, j = problem.comp_pairs.T
    return _PAIR_REL_TOL * np.maximum(1.0, np.minimum(problem.ub[i], problem.ub[j]))


def comp_violations(problem: QpProblem, x: np.ndarray) -> np.ndarray:
    """min(x_i, x_j) per complementarity pair (values below 0 clipped)."""
    i, j = problem.comp_pairs.T
    return np.maximum(np.minimum(x[i], x[j]), 0.0)


def repair_simultaneous_flow(
    problem: QpProblem,
    x: np.ndarray,
    hints: SocChainHints,
) -> RepairOutcome:
    """Remove simultaneous charge/discharge from a relaxation point.

    In every violating period, charge falls by ``dc`` and discharge by
    ``eta_cha*eta_dis*dc`` until one side is clear. That keeps the period's
    SoC flux, and so every SoC, exactly unchanged; the power balance is paid
    by extra PV curtailment, so the reduction is limited by the PV used in
    that period. Each pair is repaired on its own, in one array pass over
    all of them. The coupling-point production is never changed, so for
    planning problems the objective of the repaired point equals the
    relaxation bound. A pair that this leaves violating (too little PV)
    makes the outcome unresolved, and branch-and-bound takes it.
    """
    x = np.array(x, dtype=float)
    k = hints.eta_charge * hints.eta_discharge
    tol = _pair_tols(problem)
    hit = comp_violations(problem, x) > tol
    ci, di = problem.comp_pairs[hit].T
    pi = hints.pv_used[hit]
    cha, dis, pv = x[ci], x[di], x[pi]
    # the full reduction clears the side with the smaller flux
    clear_cha = k * cha <= dis
    dc = np.where(clear_cha, cha, dis / k)
    dd = np.where(clear_cha, k * cha, dis)
    need_pv = dc - dd
    frac = np.divide(pv, need_pv, out=np.zeros_like(pv), where=need_pv > 0)
    frac[need_pv <= pv + 1e-12] = 1.0
    x[ci] = np.maximum(cha - frac * dc, 0.0)
    x[di] = np.maximum(dis - frac * dd, 0.0)
    x[pi] = np.maximum(pv - frac * need_pv, 0.0)
    return RepairOutcome(x=x, resolved=not np.any(np.minimum(x[ci], x[di]) > tol[hit]))


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
    The repair makes the flux-preserving reduction only: a point with a pair
    it cannot clear is no incumbent, and branching goes on from it. A closed
    search is ``OPTIMAL`` either way; ``bnb.repaired`` tells whether its
    incumbent came from the repair.
    """
    root = solve_qp(problem)
    if root.status is SolveStatus.INFEASIBLE or not problem.comp_pairs.size:
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
                              refactors=root.refactors,
                              bnb=BnbStats(nodes=nodes, gap=np.inf),
                              message="node limit reached without incumbent")
        return QpSolution(root.x, np.inf, SolveStatus.INFEASIBLE, root.residuals,
                          iterations=root.iterations, refactors=root.refactors,
                          bnb=BnbStats(nodes=nodes),
                          message="all branches infeasible")

    gap = max(incumbent_obj - best_bound, 0.0) if heap else 0.0
    closed = not heap or gap <= gap_tol(incumbent_obj)
    status = SolveStatus.OPTIMAL if closed else SolveStatus.NODE_LIMIT_INCUMBENT
    return QpSolution(
        incumbent_x, incumbent_obj, status,
        KktResiduals(primal=_primal_violation(problem, incumbent_x),
                     dual=root.residuals.dual, comp_gap=root.residuals.comp_gap),
        iterations=root.iterations, refactors=root.refactors,
        bnb=BnbStats(nodes=nodes, gap=gap, repaired=incumbent_from_repair))
