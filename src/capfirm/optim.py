"""Structured convex QP engine with a complementarity branch-and-bound layer.

The problem class is deliberately narrow: diagonal quadratic cost, linear
inequality/equality systems, variable bounds, and "complementarity pairs" of
nonnegative variables of which at most one may be strictly positive (the
charge/discharge exclusivity of a battery, expressed without big-M binaries).

``solve_qp`` handles the continuous relaxation with an infeasible-start
primal-dual interior-point method (Mehrotra predictor-corrector on the
slack/bound standard form). Its Newton system is the augmented KKT system
``[[H + A'WA + dI, G'], [G, -dI]]``. Two classes of variables have a pivot
in closed form and are eliminated before factoring (Vanderbei 1995): a
variable whose rows of A are only its own bounds (a diagonal row of
``H + A'WA + dI``), and a slack with one row of A besides its bounds and no
entry in G, whose row then takes a harmonic weight. A fixed variable with no
row of A is *frozen* when each of its rows of ``a_eq`` keeps a variable
that is factored: it is held at its value and has neither a unit equality
row nor a place in the KKT matrix, a substitution (Andersen & Andersen
1995). In a planning problem the first class holds the PV used, charge,
discharge and SoC series, the second the deadband slack ``underdev``, and
the PV used where no PV is available is frozen, so the factored matrix has
dimension ``T + 3*T*S`` plus the terminal SoC and its unit row per scenario.
The terminal SoC and a charge fixed at a node stay: their SoC row has no
other factored variable, and without them it would be tied down only by
regularization-sized terms, lost to rounding beside the ``1/D ~ 1/reg`` of
an eliminated SoC inside its bounds. Each Newton direction is that of the
whole matrix, less the frozen columns, up to round-off.

The sparsity pattern is fixed for a family of solves, not only for one. Two
problems whose ``a_ub`` and ``a_eq`` have equal shapes, ``indptr`` and
``indices``, and whose bounds give equal sets of bound rows and fixed
variables, have the same standard form pattern, and so the same eliminated
and frozen variables, KKT pattern and slots: a day's plan QPs at every
battery ratio and selling price, or its control QPs. (Branch-and-bound
nodes differ from their root: a variable fixed at zero moves to the
equality rows.) What follows from the pattern alone is analyzed once
(:class:`_Analysis`), and the analyses of the two patterns solved most
recently are held and found again by comparing those arrays, not a hash.
One rule serves every solve, a branch-and-bound node or a certificate
problem too: its analysis joins the held ones, and the least recent goes.
Each solve then reads every value from its own problem, and each iteration
only fills in the matrix.
The matrix is quasi-definite, and the analysis fixes the order in which
every matrix on its pattern is filled and factored. It orders the pattern
by reverse Cuthill-McKee (Cuthill & McKee 1969). When that leaves a
bandwidth of at most ``_BAND_MAX``, as for a single-scenario plan
(bandwidth 4, dimension 386 at T=96) or control (3, 290), which are five of
every six solves of a sizing sweep, the matrix is filled in LAPACK band
storage in that order and LAPACK ``dgbtrf`` factors it with partial
pivoting, in about a third of SuperLU's time. A wider pattern (an S=20 plan
has bandwidth 80 and dimension 5,896) is factored without pivoting, which
any symmetric order allows on a quasi-definite matrix (Vanderbei 1995). It
is eliminated in rounds first. Each round takes a greedy independent set
of columns with few entries and eliminates them together, as multiple
minimum degree eliminates independent columns of least degree (Liu 1985).
In an S=20 plan four rounds take 5,340 columns: the production columns,
the power balance rows, the terminal SoC with its unit row and the first
SoC row of each scenario, and then every other SoC row of each scenario's
chain, twice. A round is a few array operations on a value array, whatever
the number of its columns, where SuperLU pays per column. SuperLU factors
the 556 columns left, the engagement columns and 23 SoC rows per scenario,
in its multiple minimum degree order of their pattern, with panels one
column wide, so that the fill stays linear in the number of scenarios. The
rounds, their slots and that order depend on the KKT pattern alone, which
plans of different days share although their standard forms differ, so a
new analysis takes them from a held one of an equal KKT pattern. The
static regularization ``d`` keeps the pivots clear of zero, so each Newton
direction is one solve with the factorization, without refinement. An
iteration is redone once with SuperLU's partial pivoting of the whole
matrix when its unpivoted factorization meets an exact zero pivot, in a
round or in what they leave, or when its step collapses (both step lengths
below ``_MIN_STEP``): near the end an unpivoted direction can blow up
although no pivot is zero, and so can a band LU's, whose pivots are chosen
in the band's order without regard to the blocks. Both are counted in
``QpSolution.refactors``. A zero pivot of the band LU means an exactly
singular matrix, as in a pivoted SuperLU factorization: infeasibility is
suspected. The IPM stops when every scaled residual and the total gap
``s.z / (1 + |obj|)``, the ``comp_gap`` it reports and ``solve_miqp``'s
weak-duality bound reads, are within ``_TOL``; the mean gap ``s.z / m``
only sets Mehrotra's centering. A floor on the corrector's centering
target keeps the total gap at or above a tenth of ``_TOL``, where the
direction still meets the linearized stationarity, so it needs no
correction step.

The duals of the inequality rows start on the scale of the cost, after
Mehrotra (1992), rather than at 1. Let ``C`` be ``max|c|`` (1 when
``c = 0``) and ``floor`` the least starting slack, the larger of 1 and a
hundredth of ``max|b|``. On a band pattern, a single-scenario plan or
control, the dual of a row with starting slack ``s`` starts centred at
``C * sqrt(floor / s)``: a row far from its bound, whose dual ends near
zero, starts with a small one, and the products ``s z = C sqrt(floor s)``
lie closer together than the slacks do, as Mehrotra centres his start. On
the first 160 sweep ops of benchmark seeds 1-4 (1,280 solves) this takes
the mean iterations per solve from 13.95 to 11.90. A wide pattern starts
flat at ``C``. Centred, the S=20 plans of the first 40 day ops of those
seeds took 18.11 iterations on average, not 17.85, and the unpivoted
rounds solve of one random storage KKT system fell short of the accuracy
of SuperLU's whole-matrix solve that the tests ask of it. The planning and
control problems at a selling price ``p`` are ``p`` times one fixed
problem, and their optimal duals scale with ``p``. ``s`` and ``floor``
come from the bounds and right-hand sides, which do not depend on the
price, so either start scales with ``p`` too, and the iterates of the
problem at every price are the same up to that factor: the Newton system,
the step lengths and the centering are invariant when ``q``, ``c``, ``z``
and ``y`` scale together. This is near, not exact, homogeneity. The
regularization ``d`` is ``1e-9 * max(1, max 2q)``, which does not scale when
``max 2q < 1``, and the ``1 +`` terms of the stopping tests and of the
centering floor do not scale either. So the iteration counts can still
differ by one across prices, and a non-unique optimum can still be left at
slightly different points. Without a start on the cost scale, the early
iterations are spent reconciling a dual of size 1 with a cost of size
``max|c|``.

``solve_miqp`` adds best-bound branch-and-bound over the pairs. Each pair is
a row (charge, discharge) of ``QpProblem.comp_pairs``. The root relaxation
is the search's first node, and every result is the root's solution with the
search's fields replaced. When the caller passes the battery structure
(:class:`SocChainHints`: the PV-used variable of each pair's period, aligned
with those rows, and the two efficiencies), a one-stage repair, the
flux-preserving reduction paid for by PV curtailment, turns a relaxation
point into a feasible incumbent without touching the coupling-point
production; a pair it cannot clear is left to branching.

Everything is deterministic: a fixed input yields a bit-identical solution
path, whatever was solved before it. A held analysis holds no value, and a
solve on one does exactly the arithmetic of a solve that builds its own.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

_REG = 1e-9                   # static regularization of the augmented system
_STEP_FRACTION = 0.995        # fraction-to-boundary
_MIN_STEP = 1e-12             # a shorter primal and dual step has stalled
_MAX_ITER = 120
_NODE_LIMIT = 1000            # branch-and-bound nodes before the search stops
_TOL = 1e-9                   # scaled KKT stopping tolerance of the IPM
_PAIR_REL_TOL = 1e-6          # complementarity tolerance relative to the pair bound
_BAND_MAX = 8                 # widest KKT band factored as a band matrix
_ROUND_CAPS = (3, 3, 4, 6)    # most entries of a column pivoted in each elimination round


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

    Every value must be finite, except that a bound may be infinite; ``q``
    must be elementwise nonnegative (convexity). ``comp_pairs`` holds
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
        if not (np.isfinite(self.q).all() and np.isfinite(self.c).all()):
            raise ValueError("q and c must be finite")
        if np.any(self.q < 0):
            raise ValueError("quadratic coefficients must be >= 0 (convexity)")
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ValueError("bounds must have the same length as c")
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise ValueError("bounds must not be NaN (infinite bounds are allowed)")
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
            if not (np.isfinite(mat.data).all() and np.isfinite(rhs).all()):
                raise ValueError(f"{mat_name} and {rhs_name} must be finite")
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, rhs_name, rhs)
        pairs = np.array(self.comp_pairs, dtype=np.intp).reshape(-1, 2)
        if np.any((pairs < 0) | (pairs >= n)):
            raise ValueError("complementarity pair indices must lie in [0, n)")
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
    comp_gap: float    # total duality gap s.z / (1 + |objective|), <= _TOL at OPTIMAL


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
    refactors: int = 0        # iterations redone with SuperLU's pivoting: an
                              # unpivoted zero pivot, or a stalled step
    bnb: BnbStats = field(default_factory=BnbStats)
    message: str = ""


# ---------------------------------------------------------------------------
# standard form: fold finite bounds into inequality rows, fixed vars into
# equality rows
# ---------------------------------------------------------------------------

def _pattern_key(prob: QpProblem) -> tuple:
    """The arrays that fix the sparsity pattern of the standard form of ``prob``.

    ``A x <= b`` is ``a_ub`` then the rows ``x_j <= ub_j`` and
    ``-x_j <= -lb_j`` of the finite bounds of the variables that are not
    fixed, and ``G x = h`` is ``a_eq`` then the rows ``x_j = ub_j`` of the
    fixed ones that are not frozen (see :class:`_Analysis`). So the pattern
    follows from the shape, ``indptr`` and ``indices`` of ``a_ub`` and of
    ``a_eq`` and from those three sets of variables, which are the key's
    last three arrays.
    """
    fixed = (np.isfinite(prob.ub) & np.isfinite(prob.lb)
             & (prob.ub - prob.lb <= 1e-14 * np.maximum(1.0, np.abs(prob.ub))))
    key = []
    for mat in (prob.a_ub, prob.a_eq):
        key += [np.array(mat.shape), mat.indptr, mat.indices[:mat.indptr[-1]]]
    return (*key, np.flatnonzero(np.isfinite(prob.ub) & ~fixed),
            np.flatnonzero(np.isfinite(prob.lb) & ~fixed), np.flatnonzero(fixed))


def _with_unit_rows(indptr: np.ndarray, indices: np.ndarray, cols: np.ndarray):
    """CSR ``(indices, indptr)`` with one more row per entry of ``cols``, at that column."""
    indptr = np.concatenate([indptr, indptr[-1] + np.arange(1, cols.size + 1)])
    return np.concatenate([indices, cols]).astype(np.intc), indptr.astype(np.intc)


def _transposed(indices: np.ndarray, indptr: np.ndarray, shape: tuple):
    """CSR ``(indices, indptr, shape)`` of the transpose, and the order of its entries.

    Entry ``k`` of the transpose is entry ``order[k]`` of the matrix: the
    CSC conversion of the entry numbers, read as CSR.
    """
    csc = sp.csr_matrix((np.arange(indices.size), indices, indptr), shape=shape).tocsc()
    return (csc.indices, csc.indptr, shape[::-1]), csc.data


def _matrix(data: np.ndarray, pattern: tuple, kind=sp.csr_matrix):
    """A sparse matrix on a shared ``(indices, indptr, shape)`` whose data is ``data``."""
    indices, indptr, shape = pattern
    mat = kind((data, indices, indptr), shape=shape)
    mat.data = data         # the constructor copies a small view
    return mat


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
    """Fraction-to-boundary step keeping ``v > 0`` positive along ``v + step * dv``.

    With ``t = min(dv / v)``, the boundary lies at step ``-1 / t`` when
    ``t < 0``, so the step is ``min(1, -_STEP_FRACTION / t)``; it is 1 when
    no entry decreases. One division and one reduction, without masking the
    decreasing entries. A ratio that overflows reads ``-inf`` and gives a
    zero step: the caller traps overflow, so it is ignored here.
    """
    with np.errstate(over="ignore", divide="ignore"):
        t = float((dv / v).min(initial=0.0))
    return 1.0 if t >= 0.0 else min(1.0, -_STEP_FRACTION / t)


def _csc_pattern(keys: np.ndarray, dim: int) -> tuple:
    """``(indices, indptr, shape)`` of a square CSC matrix with entries at the
    sorted keys ``col * dim + row``."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // dim, minlength=dim))])
    return (keys % dim).astype(np.intc), indptr.astype(np.intc), (dim, dim)


def _row_pairs(indptr: np.ndarray, counts: np.ndarray):
    """Every pair (first, second) of stored entries within each row of a CSR matrix.

    ``counts`` gives the number of entries to pair in each row (0 skips the
    row). Returns the row of each pair and the positions of its two entries.
    """
    counts = counts.astype(np.int64)
    sq = counts * counts
    row = np.repeat(np.arange(counts.size), sq)
    j = np.arange(int(sq.sum())) - np.repeat(np.cumsum(sq) - sq, sq)
    start = indptr[row]
    return row, start + j // counts[row], start + j % counts[row]


def _mmd_order(kkt: tuple) -> np.ndarray:
    """SuperLU's MMD ordering of ``K + K'`` for the CSC pattern ``kkt``.

    It reads the pattern alone, from a factorization of a matrix on it that
    meets no zero pivot: off-diagonals 1, diagonal nnz(K).
    """
    indices, indptr, (dim, _) = kkt
    if not dim:
        return np.zeros(0, dtype=np.int64)
    col = np.repeat(np.arange(dim), np.diff(indptr))
    values = np.where(indices == col, float(indices.size), 1.0)
    lu = _splu_symmetric(_matrix(values, kkt, sp.csc_matrix), "MMD_AT_PLUS_A")
    return np.argsort(lu.perm_c)


def _independent_rounds(kkt: tuple):
    """The pivots of the elimination rounds of the symmetric CSC pattern
    ``kkt``, and what is left.

    Round r visits the columns with at most ``_ROUND_CAPS[r]`` entries in
    the pattern left by the rounds before it, by increasing count and then
    index, and takes each that no column taken before it in the round
    touches: an independent set, whose pivots are eliminated together, each
    joining its neighbours into a clique (the fill). Returns, per round,
    its pivots in that order and their neighbours, a ``(n_k, k)`` array per
    count ``k`` of off-diagonal entries, and then the columns left and the
    pattern of what is left, as sorted keys ``col * n_left + row`` of
    positions among those columns.
    """
    indices, indptr, (dim, _) = kkt
    col = np.repeat(np.arange(dim, dtype=np.int64), np.diff(indptr))
    off = indices != col
    edges = col[off] * dim + indices[off]
    alive = np.ones(dim, dtype=bool)
    rounds = []
    for cap in _ROUND_CAPS:
        head, tail = np.divmod(edges, dim)
        degree = np.bincount(head, minlength=dim)
        start = np.concatenate([[0], np.cumsum(degree)])
        candidates = np.flatnonzero(alive & (degree < cap))
        candidates = candidates[np.argsort(degree[candidates], kind="stable")]
        ptr, neighbours = start.tolist(), tail.tolist()
        blocked = bytearray(dim)
        taken = []
        for j in candidates.tolist():
            if not blocked[j]:
                taken.append(j)
                for i in neighbours[ptr[j]:ptr[j + 1]]:
                    blocked[i] = 1
        if not taken:
            continue
        pivots = np.array(taken, dtype=np.int64)
        counts = degree[pivots]
        first = np.repeat(start[pivots] - np.cumsum(counts) + counts, counts)
        nbr = tail[first + np.arange(first.size)]
        groups, fill, at = [], [], 0
        for k, n_k in zip(*np.unique(counts, return_counts=True)):
            block = nbr[at:at + k * n_k].reshape(n_k, k)
            at += k * n_k
            groups.append(block)
            pairs = block[:, None, :] * dim + block[:, :, None]
            fill.append(pairs[:, ~np.eye(k, dtype=bool)].ravel())
        gone = np.zeros(dim, dtype=bool)
        gone[pivots] = True
        # the edges kept are sorted: a stable sort merges the fill into them
        edges = np.sort(np.concatenate([edges[~(gone[head] | gone[tail])], *fill]),
                        kind="stable")
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])[:edges.size]]
        alive[pivots] = False
        rounds.append((pivots, groups))
    left = np.flatnonzero(alive)
    local = np.zeros(dim, dtype=np.int64)
    local[left] = np.arange(left.size)
    keys = np.concatenate([local[edges // dim] * left.size + local[edges % dim],
                           np.arange(left.size) * (left.size + 1)])
    return rounds, left, np.sort(keys)


class _Round(NamedTuple):
    """One elimination round of :class:`_Rounds`; its index arrays run over
    the round's column entries, group by group."""

    first: int            # the round's pivots are first .. first + n in the order
    n: int
    groups: tuple         # (k, n_k): n_k pivots with k off-diagonal entries each
    v_start: int          # the round's block v[v_start:v_stop]
    v_stop: int
    target: np.ndarray    # slot after v_stop of each product l_i c_j, [i, j, pivot]
    rows: np.ndarray      # row after the round's pivots of each column entry
    owner: np.ndarray     # pivot, within the round, of each column entry


class _Rounds:
    """The elimination rounds of a wide KKT pattern, fixed by the pattern alone.

    A matrix on the pattern, filled in the ordering that :func:`_ordering`
    builds with it, has the pivots of each round first, round after round,
    and the remainder last in its MMD order. Each factorization works on one
    value array ``v``: the lower entries of each round's pivot columns,
    block by block in the order of the rounds (a block holds the round's
    diagonal, then its column entries, a ``(k, n_k)`` array per group of
    pivots with k off-diagonal entries each), then the remainder's CSC
    entries, then one slot that takes what nothing reads, the updates of
    the upper entries outside the remainder. So a round reads a slice of
    ``v`` and updates only the slots after its block. It holds ``n_elim``,
    the number of pivots of the rounds, ``size``, the length of ``v``,
    ``kpos``, the slot in ``v`` of each entry of the matrix's CSC pattern,
    ``remainder``, the CSC pattern ``(indices, indptr, shape)`` of what the
    rounds leave, and ``rounds``, a :class:`_Round` each. The index arrays
    are 32-bit and read-only. It is built from the rounds and the
    remainder's keys of :func:`_independent_rounds`, with ``rem_rank``, the
    rank of each column left within the remainder's order.
    """

    def __init__(self, kkt: tuple, rank: np.ndarray, rounds: list, rem_keys: np.ndarray,
                 rem_rank: np.ndarray):
        indices, indptr, (dim, _) = kkt
        col = np.repeat(np.arange(dim, dtype=np.int64), np.diff(indptr))
        self.n_elim = n_elim = sum(pivots.size for pivots, _ in rounds)
        n_rem = dim - n_elim

        # every entry read, by its key col * dim + row in the order, at its slot
        keys, layout, first, v_start = [], [], 0, 0
        for pivots, groups in rounds:
            n = pivots.size
            at = first + np.arange(n)
            keys.append(at * (dim + 1))
            for block in groups:
                n_k, k = block.shape
                keys.append((at[:n_k, None] * dim + rank[block]).T.ravel())
                at = at[n_k:]
            v_stop = v_start + n + sum(block.size for block in groups)
            layout.append((first, n, v_start, v_stop))
            first, v_start = first + n, v_stop
        # the remainder's keys, from its columns to their ranks in its order
        rem_col, rem_row = np.divmod(rem_keys, n_rem)
        rem_keys = np.sort(rem_rank[rem_col] * n_rem + rem_rank[rem_row])
        self.remainder = (*_csc_pattern(rem_keys, n_rem)[:2], (n_rem, n_rem))
        rem_col, rem_row = np.divmod(rem_keys, n_rem)
        keys = np.concatenate([*keys, (n_elim + rem_col) * dim + n_elim + rem_row])
        self.size = size = keys.size + 1          # the last slot takes the unread updates
        by_key = np.argsort(keys)
        sorted_keys = keys[by_key]

        def slot(key):
            at = np.minimum(np.searchsorted(sorted_keys, key), keys.size - 1)
            return np.where(sorted_keys[at] == key, by_key[at], size - 1)

        self.kpos = slot(np.sort(rank[col] * dim + rank[indices])).astype(np.intc)
        steps = []
        for (_, groups), (first, n, v_start, v_stop) in zip(rounds, layout):
            target, rows, owner, at = [], [], [], 0
            for block in groups:
                n_k, k = block.shape
                ranked = rank[block].T
                # l_i c_j, at [i, j, pivot], updates entry (row i, column j)
                target.append(slot(ranked[None, :, :] * dim + ranked[:, None, :]).ravel())
                rows.append(ranked.ravel())
                owner.append(np.tile(at + np.arange(n_k), k))
                at += n_k
            arrays = (np.concatenate(target) - v_stop, np.concatenate(rows) - first - n,
                      np.concatenate(owner))
            steps.append(_Round(first, n, tuple(block.shape[::-1] for block in groups),
                                v_start, v_stop, *(arr.astype(np.intc) for arr in arrays)))
        self.rounds = tuple(steps)
        for arr in (self.kpos, *self.remainder[:2], *(a for r in steps for a in r[5:])):
            arr.setflags(write=False)


def _ordering(kkt: tuple):
    """``(band, order, rank, rounds)``: the order in which every matrix on
    the structurally symmetric CSC pattern ``kkt`` is filled and factored.

    Entry (i, j) goes to (rank[i], rank[j]); ``order`` is the inverse. It is
    reverse Cuthill-McKee when that leaves a bandwidth ``band`` of at most
    ``_BAND_MAX``, and ``rounds`` is None. Otherwise ``band`` is None, and it
    is the pivots of the elimination rounds (:func:`_independent_rounds`),
    then the remainder in SuperLU's MMD ordering of its pattern, which
    ``rounds`` (:class:`_Rounds`) turns into slots.
    """
    indices, indptr, (dim, _) = kkt
    if dim:
        col = np.repeat(np.arange(dim), np.diff(indptr))
        order = reverse_cuthill_mckee(_matrix(np.ones(indices.size), kkt, sp.csc_matrix),
                                      symmetric_mode=True)
        rank = np.argsort(order)
        band = int(np.abs(rank[indices] - rank[col]).max())
        if band <= _BAND_MAX:
            return band, order, rank, None
    rounds, left, rem_keys = _independent_rounds(kkt)
    mmd = _mmd_order(_csc_pattern(rem_keys, left.size))
    order = np.concatenate([pivots for pivots, _ in rounds] + [left[mmd]])
    rank = np.argsort(order)
    return None, order, rank, _Rounds(kkt, rank, rounds, rem_keys, np.argsort(mmd))


class _Analysis:
    """What ``_ipm`` derives from the sparsity pattern of a problem alone.

    It is built from :func:`_pattern_key` and never reads a value, so it
    serves every problem with that pattern: a day's plan QPs at each battery
    ratio and selling price share one, and so do its control QPs. Its arrays
    are read-only. It holds:

    - the frozen variables: fixed, without a row of A, and such that each
      of their rows of ``a_eq`` also holds a variable that is neither
      bound-only nor fixed without a row of A. A row without one would be
      tied down by ``-reg`` and regularization-sized products alone, lost to
      rounding beside the ``1/D`` of a bound-only neighbour whose pivot is
      near ``reg``: the condensed matrix is then singular where K is not (an
      SoC row whose terminal SoC or charge is fixed, with the SoC inside its
      bounds). The other fixed variables keep their unit rows;
    - the CSR patterns of the standard form's A and G, and the entry orders
      that transpose them (:meth:`standard_form` puts values on them);
    - the classes of :class:`_KktAssembler` (bound-only, single-row slack,
      kept);
    - the order in which every matrix on the pattern of the condensed KKT
      matrix K is filled and factored (:func:`_ordering`: ``band``,
      ``order``, ``rank``) and, for a wide pattern, its elimination rounds
      (``rounds``), kept with K's pattern in ``ordering``, which a new
      analysis of an equal K pattern takes over (:func:`_analyze`);
    - K's CSC pattern in that order (``kkt``), the slot of every
      contribution in it (``slot``) and, for a band, in LAPACK band
      storage (``band_slot``);
    - the CSR patterns of the border B where the eliminated variables meet
      the factored system, and of B', with the order that takes the
      entries of B' to those of B.

    Everything else, including every value of A, G, ``d`` and ``reg``, is
    read per solve by :class:`_KktAssembler`.
    """

    def __init__(self, key: tuple, orderings=()):
        # copies: a caller may change its arrays after the solve
        self.key = key = tuple(np.array(k) for k in key)
        ub_shape, ub_ptr, ub_idx, eq_shape, eq_ptr, eq_idx, free_ub, free_lb, fix_idx = key
        n = int(ub_shape[1])
        self.free_ub, self.free_lb = free_ub, free_lb
        self.nnz_ub, self.nnz_eq = ub_idx.size, eq_idx.size
        a_var, a_ptr = _with_unit_rows(ub_ptr, ub_idx, np.concatenate([free_ub, free_lb]))
        m = a_ptr.size - 1
        self.a = (a_var, a_ptr, (m, n))
        self.a_t, self.a_order = _transposed(*self.a)

        counts = np.diff(a_ptr)
        a_row = np.repeat(np.arange(m), counts)
        alone = counts[a_row] == 1     # the only entry of its row: a bound row
        n_rows = np.bincount(a_var, minlength=n)
        n_shared = np.bincount(a_var[~alone], minlength=n)
        bound_only = (n_rows > 0) & (n_shared == 0)

        # a fixed variable without a row of A is frozen when each of its rows
        # of a_eq holds a variable of the core (neither bound-only nor such a
        # candidate); the others keep their unit rows in G
        frozen = np.zeros(n, dtype=bool)
        frozen[fix_idx] = n_rows[fix_idx] == 0
        eq_row = np.repeat(np.arange(int(eq_shape[0])), np.diff(eq_ptr))
        loose = np.bincount(eq_row, weights=~(bound_only | frozen)[eq_idx],
                            minlength=int(eq_shape[0])) == 0
        frozen[eq_idx[loose[eq_row]]] = False
        self.frozen = np.flatnonzero(frozen)
        self.unit = fix_idx[~frozen[fix_idx]]
        g_idx, g_ptr = _with_unit_rows(eq_ptr, eq_idx, self.unit)
        p = g_ptr.size - 1
        self.g = (g_idx, g_ptr, (p, n))
        self.g_t, self.g_order = _transposed(*self.g)
        g_row, g_t_ptr, _ = self.g_t
        g_counts = np.diff(g_t_ptr)
        g_var = np.repeat(np.arange(n), g_counts)

        # single-row slacks, the first candidate of each row
        s_ent = np.flatnonzero(~alone & ((n_shared == 1) & (g_counts == 0))[a_var])
        s_row, first = np.unique(a_row[s_ent], return_index=True)
        s_ent = s_ent[first]
        s_var, n_s = a_var[s_ent], s_ent.size

        slack = np.zeros(n, dtype=bool)
        slack[s_var] = True
        elim = bound_only | slack
        factored = ~elim & ~frozen
        # slacks first
        self.e_var = e_var = np.concatenate([s_var, np.flatnonzero(bound_only)])
        self.keep = np.flatnonzero(factored)
        n_r = self.keep.size
        pos = np.zeros(n, dtype=np.intp)        # position in E, or in R
        pos[e_var] = np.arange(e_var.size)
        pos[self.keep] = np.arange(n_r)
        self.dim = dim = n_r + p
        g_col = n_r + g_row                     # column of a row of G

        # pivots: d and the bound rows' w a^2
        on_e = elim[a_var] & alone
        self.bound_ent = np.flatnonzero(on_e)
        self.bound_pos, self.bound_row = pos[a_var[on_e]], a_row[on_e]
        self.s_row, self.s_ent = s_row, s_ent

        # products of a row of A between retained variables, weighted by w,
        # or by the harmonic weight of a slack's row, at m + its index
        r_ent = np.flatnonzero(~elim[a_var])
        r_counts = np.bincount(a_row[r_ent], minlength=m)
        pair_row, e1, e2 = _row_pairs(np.concatenate([[0], np.cumsum(r_counts)]), r_counts)
        self.e1, self.e2 = e1, e2 = r_ent[e1], r_ent[e2]
        weight_of = np.arange(m)
        weight_of[s_row] = m + np.arange(n_s)
        self.pair_w = weight_of[pair_row]

        # the products of G's columns on E
        pair_var, self.f1, self.f2 = _row_pairs(g_t_ptr, g_counts * elim)
        self.gp_pos = pos[pair_var]

        # the border B (dim x |E|) without the weights w_k, which each call
        # puts in a column scale: a_kl a_ku at (l, u) for each other entry l
        # of a slack u's row k, and G on E. It is built as B', whose rows
        # come in the order of E: the entries of the slacks' rows run row by
        # row, as the slacks do, and the bound-only columns of G follow in
        # variable order. No entry reaches a frozen variable.
        self.o_ent = o_ent = np.flatnonzero((weight_of[a_row] >= m) & ~slack[a_var])
        self.o_slack = o_slack = weight_of[a_row[o_ent]] - m
        self.on_e_g = on_e_g = elim[g_var]
        e_counts = np.bincount(np.concatenate([o_slack, pos[g_var[on_e_g]]]),
                               minlength=e_var.size)
        self.border_t = (np.concatenate([pos[a_var[o_ent]], g_col[on_e_g]]).astype(np.intc),
                         np.concatenate([[0], np.cumsum(e_counts)]).astype(np.intc),
                         (e_var.size, dim))
        self.border, self.border_order = _transposed(*self.border_t)

        self.on_r = on_r = factored[g_var]
        r_row, r_col = g_col[on_r], pos[g_var[on_r]]
        r_rng, p_rng = np.arange(n_r), np.arange(n_r, dim)
        rows = np.concatenate([r_rng, r_row, r_col, p_rng, pos[a_var[e1]], g_col[self.f1]])
        cols = np.concatenate([r_rng, r_col, r_row, p_rng, pos[a_var[e2]], g_col[self.f2]])
        keys, slot = np.unique(cols.astype(np.int64) * dim + rows, return_inverse=True)
        self.n_fixed = rows.size - e1.size - self.f1.size
        pattern = _csc_pattern(keys, dim)
        held = [o for o in orderings if all(map(np.array_equal, o[:2], pattern[:2]))]
        self.ordering = held[0] if held else (*pattern[:2], *_ordering(pattern))
        _, _, self.band, self.order, self.rank, self.rounds = self.ordering

        # entry (i, j) of K is filled at (rank[i], rank[j]): in CSC, and in a
        # band's LAPACK storage at row 2 bw + i - j of column j, column-major
        row, col = self.rank[keys % dim], self.rank[keys // dim]
        moved, where = np.unique(col * dim + row, return_inverse=True)
        self.kkt, self.slot = _csc_pattern(moved, dim), where[slot]
        self.band_slot, bw = None, self.band
        if bw is not None:
            self.band_slot = (col * (3 * bw + 1) + 2 * bw + row - col)[slot]
        # the indices each solve reads once, not in every iteration, are
        # held in 32 bits: half the memory, at the price of a cast per gather
        for name in ("bound_ent", "s_ent", "e1", "e2", "f1", "f2", "o_ent", "o_slack",
                     "a_order", "g_order", "border_order"):
            setattr(self, name, getattr(self, name).astype(np.intc))
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)

    def standard_form(self, prob: QpProblem):
        """``(A, b, G, h, A', G')`` of ``prob``, whose pattern this is.

        The matrices are CSR, with the values of ``prob`` on the index
        arrays of the analysis.
        """
        a_data = np.concatenate([prob.a_ub.data[:self.nnz_ub], np.ones(self.free_ub.size),
                                 np.full(self.free_lb.size, -1.0)])
        g_data = np.concatenate([prob.a_eq.data[:self.nnz_eq], np.ones(self.unit.size)])
        b_all = np.concatenate([prob.b_ub, prob.ub[self.free_ub], -prob.lb[self.free_lb]])
        h_all = np.concatenate([prob.b_eq, prob.ub[self.unit]])
        return (_matrix(a_data, self.a), b_all, _matrix(g_data, self.g), h_all,
                _matrix(a_data[self.a_order], self.a_t),
                _matrix(g_data[self.g_order], self.g_t))


# the analyses of the two patterns solved most recently, the newest last;
# shared by every solve in the process, so each lookup holds the lock
_RECENT: list[_Analysis] = []
_RECENT_LOCK = threading.Lock()


def _analyze(prob: QpProblem) -> _Analysis:
    """The analysis of the pattern of ``prob``.

    A recent analysis serves when each array of its key equals that of
    ``prob``. Otherwise a new one is built, handed the orderings of the held
    ones, and takes one of an equal KKT pattern. The least recent of two is
    dropped before it is built, and it is held, so no more than two are held
    at any time.
    """
    key = _pattern_key(prob)
    with _RECENT_LOCK:
        for i, analysis in enumerate(_RECENT):
            if all(map(np.array_equal, key, analysis.key)):
                _RECENT.append(_RECENT.pop(i))
                return analysis
        orderings = [analysis.ordering for analysis in _RECENT]
        if len(_RECENT) == 2:
            del _RECENT[0]
        _RECENT.append(_Analysis(key, orderings))
        return _RECENT[-1]


class _KktAssembler:
    """The condensed KKT matrix of one ``_ipm`` solve, on a shared pattern.

    The Newton system is ``K [dx; dy] = [r1; r2]`` with
    ``K = [[diag(d) + A'WA, G'], [G, -reg I]]`` without the columns of the
    frozen variables, whose ``dx`` is 0. Two classes of variables have a
    pivot known in closed form and are eliminated (E); the others (R) and
    the rows of G are factored.

    - *Bound-only*: at least one row of A, and the only entry of each (its
      bound rows). It meets the rest of K only in G; its pivot is
      ``D_j = d_j + sum_k w_k a_kj^2``.
    - *Single-row slack*: exactly one row k of A with other entries, any
      bound rows, and no entry in G (the deadband slack). With
      ``b = d_u + sum_bound w a^2`` its pivot is ``D_u = b + w_k a_ku^2``,
      and row k's products of the other variables take the harmonic weight
      ``w_k b / D_u`` in place of ``w_k``, with the same fill. At most one
      per row: the first.

    The factored matrix is the Schur complement of E's block,
    ``[[diag(d_R) + A_R'W'A_R, G_R'], [G_R, -reg I - G_E D_E^-1 G_E']]``,
    with W' the harmonic weights; it is K itself, slot for slot, when nothing
    qualifies. E meets the factored system through a border B:
    ``w_k a_kl a_ku`` for a slack u of row k, and G on E.

    The classes, the pattern and the slots depend only on the pattern of A
    and G, and come from the shared :class:`_Analysis`. Construction reads
    every value (the entries of A and G, ``d``, ``reg``) and computes from
    them the unweighted products and the values of B and B' without the
    weights ``w_k``, so an assembler on a shared analysis does the
    arithmetic of one on a new one.

    Calling it with the row weights ``w`` fills the matrix with one
    ``np.bincount``: every contribution (the diagonal ``d_R``, each product
    ``a_ki a_kl`` of a row of A, each product ``g_ri g_si`` of a column of G
    on E, the entries of G_R and G_R', and ``-reg``) has a precomputed slot
    in the pattern; the products of A are scaled by ``W'``, those of G by
    ``-1/D``. The matrix comes in the analysis's order: a narrow band
    (``_Analysis.band``) as a new ``(3 bw + 1, dim)`` array in Fortran order
    in LAPACK band storage, which ``dgbtrf`` factors in place, a wider
    pattern as a CSC matrix (:meth:`csc`), which :class:`_RoundsLu` factors.
    :meth:`condense` and
    :meth:`expand` take a right-hand side to the condensed system, in the
    order of the matrix, and its solution back to ``(dx, dy)``, with the
    pivots of the last call: each makes one product with B or B' and scales
    E by the column scale the call sets, ``1/D_j`` for a bound-only variable
    and ``w_k/D_u`` for a slack.
    """

    def __init__(self, analysis: _Analysis, a_all: sp.csr_matrix, g_t: sp.csr_matrix,
                 d: np.ndarray, reg: float):
        an = self._an = analysis
        self.keep = an.keep
        a_val, g_val = a_all.data, g_t.data
        self._d_e = d[an.e_var]
        self._bound_sq = a_val[an.bound_ent] ** 2
        self._s_sq = a_val[an.s_ent] ** 2
        self._a_prod = a_val[an.e1] * a_val[an.e2]
        self._g_prod = -(g_val[an.f1] * g_val[an.f2])
        border_t = np.concatenate([a_val[an.o_ent] * a_val[an.s_ent][an.o_slack],
                                   g_val[an.on_e_g]])
        self._border_t = _matrix(border_t, an.border_t)
        self._border = _matrix(border_t[an.border_order], an.border)

        r_val = g_val[an.on_r]
        self._values = np.concatenate([
            d[an.keep], r_val, r_val, np.full(an.dim - an.keep.size, -reg),
            self._a_prod, self._g_prod])

    def __call__(self, w: np.ndarray) -> sp.csc_matrix | np.ndarray:
        an = self._an
        n_s = an.s_row.size
        piv = self._d_e + np.bincount(an.bound_pos,
                                      weights=w[an.bound_row] * self._bound_sq,
                                      minlength=self._d_e.size)
        w_k = w[an.s_row]
        base = piv[:n_s]
        total = base + w_k * self._s_sq
        harmonic = w_k * (base / total)
        piv[:n_s] = total
        self._inv = inv = 1.0 / piv
        self._col_weight = np.concatenate([w_k * inv[:n_s], inv[n_s:]])
        k = an.n_fixed + self._a_prod.size
        np.multiply(np.concatenate([w, harmonic])[an.pair_w], self._a_prod,
                    out=self._values[an.n_fixed:k])
        np.multiply(inv[an.gp_pos], self._g_prod, out=self._values[k:])
        if an.band is None:
            return self.csc()
        rows = 3 * an.band + 1
        data = np.bincount(an.band_slot, weights=self._values, minlength=an.dim * rows)
        return data.reshape(an.dim, rows).T

    def csc(self) -> sp.csc_matrix:
        """The matrix of the last call as a CSC matrix, in the same order."""
        an = self._an
        return _matrix(np.bincount(an.slot, weights=self._values, minlength=an.kkt[0].size),
                       an.kkt, sp.csc_matrix)

    def condense(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Right-hand side ``[r1_R; r2] - B D_E^-1 r1_E`` of the condensed
        system, in the order of the matrix; ``r1`` of a frozen variable is
        not read."""
        e_var = self._an.e_var
        rhs = (np.concatenate([r1[self.keep], r2])
               - self._border @ (self._col_weight * r1[e_var]))
        return rhs[self._an.order]

    def expand(self, sol: np.ndarray, r1: np.ndarray):
        """``(dx, dy)`` of the whole system from the solution ``sol`` of the
        condensed one, in the order of the matrix: ``dx_E = D_E^-1 (r1_E -
        B' sol)``, ``dx_R`` and ``dy`` from ``sol``, and 0 for a frozen
        variable."""
        sol = sol[self._an.rank]
        e_var, n_r = self._an.e_var, self.keep.size
        dx = np.zeros(r1.size)
        dx[self.keep] = sol[:n_r]
        dx[e_var] = r1[e_var] * self._inv - self._col_weight * (self._border_t @ sol)
        return dx, sol[n_r:]


def _splu_symmetric(kkt: sp.csc_matrix, permc_spec: str = "NATURAL"):
    """LU of a quasi-definite matrix without pivoting.

    :class:`_RoundsLu` factors what the elimination rounds leave of a wide
    KKT matrix in ``NATURAL`` order: it comes in the order of its analysis,
    a fill-reducing ordering that :func:`_mmd_order` reads from one
    ``MMD_AT_PLUS_A`` factorization of its pattern. Panels one column wide
    take about 15 % less factor time than SuperLU's default width on what
    an S=20 plan leaves. The diagonal pivots of a quasi-definite matrix are
    nonzero in exact arithmetic but can still hit zero in floating point,
    in which case SuperLU raises ``RuntimeError`` and the caller refactors.
    """
    return spla.splu(kkt, permc_spec=permc_spec, diag_pivot_thresh=0.0, panel_size=1,
                     options=dict(SymmetricMode=True))


class _RoundsLu:
    """LDL' factorization of a wide KKT matrix without pivoting, in the
    ordering of its analysis: the elimination rounds of ``rounds``
    (:class:`_Rounds`), then the remainder by :func:`_splu_symmetric`.

    The pivots of a round are independent, so each round is a few array
    operations: the pivots and the column entries are a slice of the value
    array, ``l = c / d`` scales each column, and the Schur-complement
    updates ``l_i c_j`` of every pivot, an outer product per group of
    pivots with as many entries, go to their slots in one ``np.bincount``.
    An exact zero pivot raises ``RuntimeError``, as SuperLU does.
    """

    def __init__(self, kkt: sp.csc_matrix, rounds: _Rounds):
        self._rounds = rounds
        v = np.bincount(rounds.kpos, weights=kkt.data, minlength=rounds.size)
        self._factors = []
        for r in rounds.rounds:
            piv = v[r.v_start:r.v_start + r.n]
            if not piv.all():
                raise RuntimeError("Factor is exactly singular")
            inv = 1.0 / piv
            col = v[r.v_start + r.n:r.v_stop]
            lower = np.empty(col.size)
            update = np.empty(r.target.size)
            at = pos = out = 0
            for k, n_k in r.groups:
                c = col[pos:pos + k * n_k].reshape(k, n_k)
                l = np.multiply(c, inv[at:at + n_k], out=lower[pos:pos + k * n_k].reshape(k, n_k))
                np.multiply(l[:, None, :], c[None, :, :],
                            out=update[out:out + k * k * n_k].reshape(k, k, n_k))
                at, pos, out = at + n_k, pos + k * n_k, out + k * k * n_k
            v[r.v_stop:] -= np.bincount(r.target, weights=update, minlength=v.size - r.v_stop)
            self._factors.append((inv, lower))
        self._remainder = None
        if rounds.remainder[2][0]:
            begin = rounds.size - 1 - rounds.remainder[0].size
            self._remainder = _splu_symmetric(
                _matrix(v[begin:-1], rounds.remainder, sp.csc_matrix))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=float)
        steps = list(zip(self._rounds.rounds, self._factors))
        for r, (_, lower) in steps:
            last = r.first + r.n
            x[last:] -= np.bincount(r.rows, weights=lower * np.take(x[r.first:last], r.owner),
                                    minlength=x.size - last)
        if self._remainder is not None:
            n_elim = self._rounds.n_elim
            x[n_elim:] = self._remainder.solve(x[n_elim:])
        for r, (inv, lower) in reversed(steps):
            last = r.first + r.n
            xp = x[r.first:last]
            xp *= inv
            xp -= np.bincount(r.owner, weights=lower * np.take(x[last:], r.rows), minlength=r.n)
        return x


class _BandLu:
    """LU with partial pivoting (LAPACK ``dgbtrf``) of a band matrix of
    bandwidth ``bw`` in band storage, which it overwrites.

    A zero pivot means the matrix is exactly singular; it raises
    ``RuntimeError``, as SuperLU does.
    """

    def __init__(self, ab: np.ndarray, bw: int):
        self._bw = bw
        self._lu, self._piv, info = dgbtrf(ab, bw, bw, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgbtrs(self._lu, self._bw, self._bw, rhs, self._piv)[0]


def _ipm(prob: QpProblem):
    """Mehrotra predictor-corrector on the slack standard form.

    Each Newton direction is one solve with the condensed KKT matrix of
    :class:`_KktAssembler`: bound-only variables and single-row slacks are
    eliminated in closed form. The matrix comes in the order of the
    analysis, and is factored in that order: a narrow band by
    :class:`_BandLu`, a wider pattern by :class:`_RoundsLu`, elimination
    rounds and then SuperLU on the columns they leave (see the module
    note). A frozen variable starts at ``ub`` and no
    direction moves it; its entry of the stationarity residual is left out,
    in the stopping test and in ``residuals.dual``, as the multiplier of the
    unit row it does not have would take it up.
    It is ``OPTIMAL`` when the scaled residuals and the total gap, returned
    as ``residuals.comp_gap``, are within ``_TOL`` (see the module note).
    Returns (x, status, residuals, iterations, refactors), where
    ``refactors`` counts the iterations redone with SuperLU's partial
    pivoting of the whole matrix: their symmetric factorization met an
    exact zero pivot, or their step stalled.
    The duals start on the scale ``max|c|``: centred, ``max|c| *
    sqrt(floor / s)``, on a band pattern and flat on a wide one, whose S=20
    plans it would slow (see the module note). Infeasibility is
    *suspected* (never certified) here; the caller confirms with an elastic
    problem. Without inequality rows (m = 0) the first Newton step solves the
    equality-constrained QP and the second iteration accepts it.

    The per-solve set-up is kept to array operations on values: the pattern
    of the standard form, its transposes and the condensed KKT matrix come
    from the :class:`_Analysis` of a recent solve of the same pattern when
    there is one (:func:`_analyze`), and from a new one otherwise, held for
    later solves.
    """
    analysis = _analyze(prob)
    a_all, b_all, g_all, h_all, a_t, g_t = analysis.standard_form(prob)
    m = a_all.shape[0]
    p = g_all.shape[0]
    hdiag = 2.0 * prob.q
    reg = _REG * max(1.0, float(np.max(hdiag, initial=0.0)))
    assemble = _KktAssembler(analysis, a_all, g_t, hdiag + reg, reg)
    band = analysis.band

    # starting point: bound midpoints where available, else zero
    x = np.clip(0.0, prob.lb, prob.ub)
    both = np.isfinite(prob.lb) & np.isfinite(prob.ub)
    x[both] = 0.5 * (prob.lb[both] + prob.ub[both])
    frozen = analysis.frozen     # held at ub: no direction reaches them
    x[frozen] = prob.ub[frozen]
    floor = max(1.0, 1e-2 * float(np.max(np.abs(b_all), initial=0.0)))
    s = np.maximum(b_all - a_all @ x, floor)
    # duals on the scale of the cost: a problem and its multiples by a price
    # then start, and move, alike. On a band pattern they are centred, the
    # larger a row's slack the smaller its dual; a wide one starts flat.
    z_scale = float(np.max(np.abs(prob.c), initial=0.0)) or 1.0
    z = np.full(m, z_scale) if band is None else z_scale * np.sqrt(floor / s)
    y = np.zeros(p)

    b_scale = 1.0 + float(np.max(np.abs(b_all), initial=0.0))
    h_scale = 1.0 + float(np.max(np.abs(h_all), initial=0.0))
    c_scale = 1.0 + float(np.max(np.abs(prob.c)))
    m_mean = max(m, 1)            # mean complementarity is 0 without rows

    def stationarity():
        # a frozen variable's entry would be taken up by the multiplier of
        # the unit row it does not have
        r_d = hdiag * x + prob.c + a_t @ z + g_t @ y
        r_d[frozen] = 0.0
        return r_d

    status = None
    it = 0
    refactors = 0
    for it in range(1, _MAX_ITER + 1):
        r_d = stationarity()
        r_p = a_all @ x + s - b_all
        r_e = g_all @ x - h_all
        gap = float(s @ z)
        mu = gap / m_mean
        obj = prob.objective(x)

        rp_norm = float(np.abs(r_p).max(initial=0.0)) / b_scale
        re_norm = float(np.abs(r_e).max(initial=0.0)) / h_scale
        rd_norm = float(np.abs(r_d).max()) / (c_scale + float(np.abs(hdiag * x).max()))
        gap_rel = gap / (1.0 + abs(obj))

        if rp_norm <= _TOL and re_norm <= _TOL and rd_norm <= _TOL and gap_rel <= _TOL:
            status = SolveStatus.OPTIMAL
            break
        if z.max(initial=0.0) > 1e13 or s.max(initial=0.0) > 1e16:
            break  # suspected infeasible; certified by the caller

        pivoted = False
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # factor [[H + A'WA + dI, G'], [G, -dI]] with W = Z/S
                kkt = assemble(z / s)
                if band is not None:
                    lu = _BandLu(kkt, band)
                else:
                    try:
                        lu = _RoundsLu(kkt, analysis.rounds)
                    except RuntimeError:
                        # exact zero pivot: refactor with partial pivoting
                        lu, pivoted = spla.splu(kkt), True

                def direction(r_c):
                    r1 = -(r_d + a_t @ ((r_c + z * r_p) / s))
                    sol = lu.solve(assemble.condense(r1, -r_e))
                    # neither LU raises on NaN, and a NaN step passes every
                    # later comparison unnoticed
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
                    # a stalled step: the direction of an unpivoted
                    # factorization can be huge although no pivot is zero,
                    # and so can that of a band LU, whose pivots are chosen
                    # in the band's order; redo the iteration once with
                    # SuperLU's partial pivoting
                    lu, pivoted = spla.splu(assemble.csc()), True
        except (RuntimeError, FloatingPointError):
            # the pivoted factorization too found the KKT matrix exactly
            # singular, or the step overflows or turns NaN: suspected
            # infeasible, as above
            break
        finally:
            refactors += pivoted
        if max(a_p, a_d) < _MIN_STEP:
            break  # stalled after a pivoted factorization too
        x = x + a_p * dx
        s = s + a_p * ds
        y = y + a_d * dy
        z = z + a_d * dz

    residuals = KktResiduals(
        primal=_primal_violation(prob, x),
        dual=float(np.max(np.abs(stationarity()))) / c_scale,
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
    a_ub = sp.hstack([prob.a_ub, -sp.eye(m, format="csr"),
                      sp.csr_matrix((m, 2 * peq))], format="csr")
    a_eq = sp.hstack([prob.a_eq, sp.csr_matrix((peq, m)),
                      sp.eye(peq, format="csr"), -sp.eye(peq, format="csr")], format="csr")
    lb = np.concatenate([prob.lb, np.zeros(n_el)])
    ub = np.concatenate([prob.ub, np.full(n_el, np.inf)])
    elastic = QpProblem(q=q, c=c, a_ub=a_ub, b_ub=prob.b_ub, a_eq=a_eq, b_eq=prob.b_eq,
                        lb=lb, ub=ub)
    x = _ipm(elastic)[0]
    mass = float(np.sum(x[n:]))
    scale = 1.0 + float(np.max(np.abs(np.concatenate([prob.b_ub, prob.b_eq]))))
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
    soc_hints: SocChainHints | None = None,
) -> QpSolution:
    """Best-bound branch-and-bound over complementarity pairs on :func:`solve_qp`.

    The search's first node is the root, the relaxation itself. A node whose
    point violates a pair is branched by fixing one side of the most-violated
    pair to zero in each child (ties broken by pair order); the search stops
    when the optimality gap falls below ``1e-6 * (1 + |incumbent|)`` or after
    ``_NODE_LIMIT`` nodes. When hints are supplied, every violating relaxation
    point is repaired and a repaired point serves as an incumbent, which
    usually closes the gap at the root. The repair makes the flux-preserving
    reduction only: a point with a pair it cannot clear is no incumbent, and
    branching goes on from it. A closed search is ``OPTIMAL`` either way;
    ``bnb.repaired`` tells whether its incumbent came from the repair. Every
    result is the root's solution with the search's fields replaced: ``x``,
    ``objective``, ``status``, ``residuals.primal``, ``bnb`` and ``message``.
    """
    root = solve_qp(problem)
    if root.status is SolveStatus.INFEASIBLE or not problem.comp_pairs.size:
        return replace(root, bnb=BnbStats(nodes=1))

    tols = _pair_tols(problem)
    # weak duality: no feasible point lies below the root objective minus
    # the root's remaining duality gap s.z
    dual_bound = root.objective - root.residuals.comp_gap * (1.0 + abs(root.objective))

    incumbent_x = None
    incumbent_obj = np.inf
    incumbent_primal = np.inf
    incumbent_from_repair = False
    heap: list[tuple[float, int, tuple[int, ...]]] = [(root.objective, 0, ())]
    seq = 1

    def gap_tol(value: float) -> float:
        return 1e-6 * (1.0 + abs(value))

    def consider(x: np.ndarray, from_repair: bool, primal=None, obj=None) -> None:
        """Take a complementary feasible point as incumbent when it is better;
        ``primal`` and ``obj`` are given when measured, as for the root's point."""
        nonlocal incumbent_x, incumbent_obj, incumbent_primal, incumbent_from_repair
        if np.max(comp_violations(problem, x) - tols) > 0:
            return
        primal = _primal_violation(problem, x) if primal is None else primal
        if primal > 1e-6:
            return
        obj = problem.objective(x) if obj is None else obj
        if obj < incumbent_obj - 1e-12:
            if obj < dual_bound - gap_tol(obj):
                raise SolverError("incumbent below the relaxation bound: "
                                  "weak duality violated")
            incumbent_x = x
            incumbent_obj = obj
            incumbent_primal = primal
            incumbent_from_repair = from_repair

    nodes = 0
    while heap:
        bound, _, fixes = heapq.heappop(heap)
        best_bound = bound
        if incumbent_x is not None and incumbent_obj - bound <= gap_tol(incumbent_obj):
            heap.clear()
            break
        if nodes >= _NODE_LIMIT:
            heapq.heappush(heap, (bound, -1, fixes))
            break
        ub = problem.ub.copy()
        ub[list(fixes)] = 0.0
        sol = solve_qp(replace(problem, ub=ub)) if fixes else root
        nodes += 1
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        if incumbent_x is not None and sol.objective >= incumbent_obj - gap_tol(incumbent_obj):
            continue
        # a node only fixes pair sides at zero, below every pair tolerance,
        # so its point is judged and repaired on problem
        viol = comp_violations(problem, sol.x)
        if np.max(viol - tols) <= 0:
            # the root solve has measured its own point
            consider(sol.x, False, *(() if fixes else (sol.residuals.primal, sol.objective)))
            continue
        if soc_hints is not None:
            outcome = repair_simultaneous_flow(problem, sol.x, soc_hints)
            if outcome.resolved:
                consider(outcome.x, from_repair=True)
        scaled = viol / np.maximum(tols / _PAIR_REL_TOL, 1.0)
        best = float(np.max(scaled))
        j = int(np.flatnonzero(scaled >= best - 1e-12)[0])
        i_var, j_var = problem.comp_pairs[j]
        heapq.heappush(heap, (sol.objective, seq, fixes + (i_var,)))
        heapq.heappush(heap, (sol.objective, seq + 1, fixes + (j_var,)))
        seq += 2

    if incumbent_x is None:
        if heap:
            return replace(root, objective=np.inf,
                           status=SolveStatus.NODE_LIMIT_NO_INCUMBENT,
                           bnb=BnbStats(nodes=nodes, gap=np.inf),
                           message="node limit reached without incumbent")
        return replace(root, objective=np.inf, status=SolveStatus.INFEASIBLE,
                       bnb=BnbStats(nodes=nodes), message="all branches infeasible")

    gap = max(incumbent_obj - best_bound, 0.0) if heap else 0.0
    closed = not heap or gap <= gap_tol(incumbent_obj)
    return replace(
        root, x=incumbent_x, objective=incumbent_obj,
        status=SolveStatus.OPTIMAL if closed else SolveStatus.NODE_LIMIT_INCUMBENT,
        residuals=replace(root.residuals, primal=incumbent_primal),
        bnb=BnbStats(nodes=nodes, gap=gap, repaired=incumbent_from_repair), message="")
