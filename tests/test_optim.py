"""QP interior point, complementarity branch-and-bound, and the flow repair."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from capfirm import optim
from capfirm.domain import TimeGrid
from capfirm.optim import (
    QpProblem,
    SocChainHints,
    SolverError,
    SolveStatus,
    comp_violations,
    repair_simultaneous_flow,
    solve_miqp,
    solve_qp,
)
from capfirm.planner import (
    PlanningInstance,
    build_planning_qp,
    dispatch_index,
    dispatch_problem,
)
from capfirm.scenarios import ScenarioSet

from oracles import (
    dense_grid_qp,
    enumerate_miqp,
    projected_descent_qp,
    random_box_qp,
    random_storage_miqp,
)
from toys import toy_grid, toy_policy, toy_system

DATA = Path(__file__).parent / "data"


class TestQpProblem:
    def test_complementarity_pairs_are_checked_and_kept_in_order(self):
        base = dict(q=np.zeros(4), c=np.ones(4), lb=[0.0, 0.0, 0.0, -1.0],
                    ub=[1.0, 2.0, np.inf, 1.0])
        given = np.array([[1, 0], [0, 1]], dtype=np.int64)
        prob = QpProblem(**base, comp_pairs=given)
        assert prob.comp_pairs.dtype == np.intp
        assert np.array_equal(prob.comp_pairs, [[1, 0], [0, 1]])
        assert not prob.comp_pairs.flags.writeable
        given[0] = (2, 3)                     # a copy, not a view of the caller's array
        assert np.array_equal(prob.comp_pairs, [[1, 0], [0, 1]])
        assert QpProblem(**base).comp_pairs.shape == (0, 2)
        with pytest.raises(ValueError, match="bounded"):
            QpProblem(**base, comp_pairs=[(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            QpProblem(**base, comp_pairs=[(3, 0)])

    @pytest.mark.parametrize("pair", [(0, -2), (0, 4)], ids=["negative", "past_the_end"])
    def test_pair_indices_outside_the_variables_are_rejected(self, pair):
        # a negative index would wrap to variable n - 2 and be branched on
        base = dict(q=np.zeros(4), c=np.ones(4), lb=np.zeros(4), ub=np.ones(4))
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            QpProblem(**base, comp_pairs=[pair])

    @pytest.mark.parametrize("field", ["q", "c", "b_ub", "b_eq", "a_ub", "a_eq", "lb", "ub"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_data_is_rejected(self, field, bad):
        # every value must be finite, except a bound, which may be infinite
        # but not NaN
        rows = dict(q=np.ones(3), c=np.ones(3), a_ub=np.eye(3)[:2], b_ub=np.ones(2),
                    a_eq=np.ones((1, 3)), b_eq=np.ones(1), lb=np.zeros(3),
                    ub=np.full(3, 2.0))
        QpProblem(**rows)
        value = np.array(rows[field], dtype=float)
        value.flat[-1] = bad
        rows[field] = value
        if field in ("lb", "ub") and bad == np.inf:
            QpProblem(**rows)
            return
        with pytest.raises(ValueError, match="finite|NaN"):
            QpProblem(**rows)


class TestSolveQpBasics:
    def test_active_bound(self):
        # min (x-1)^2 s.t. x <= 0 -> x = 0 (squared value 1)
        prob = QpProblem(q=[1.0], c=[-2.0], ub=[0.0])
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.0, abs=1e-7)
        assert (sol.x[0] - 1.0) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_equality(self):
        prob = QpProblem(q=[1.0, 1.0], c=[0.0, 0.0],
                         a_eq=[[1.0, 1.0]], b_eq=[2.0])
        sol = solve_qp(prob)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-7)
        assert sol.objective == pytest.approx(2.0, abs=1e-7)

    def test_lp_corner(self):
        prob = QpProblem(q=[0.0, 0.0], c=[1.0, 2.0], lb=[0.5, -1.0], ub=[4.0, 4.0])
        sol = solve_qp(prob)
        assert np.allclose(sol.x, [0.5, -1.0], atol=1e-6)

    def test_unbounded(self):
        # every QP the package builds is bounded; the regularized step moves
        # x by about |r_d| / reg per iteration, so min x s.t. x <= 0 runs out
        # of iterations and, not being infeasible, raises
        with pytest.raises(SolverError, match="did not converge"):
            solve_qp(QpProblem(q=[0.0], c=[1.0], ub=[0.0]))

    def test_infeasible_with_certificate(self):
        prob = QpProblem(q=[1.0], c=[0.0],
                         a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.INFEASIBLE
        assert "certificate" in sol.message

    def test_kkt_residuals_within_contract(self):
        rng = np.random.default_rng(3)
        q, c, a, b, lb, ub = random_box_qp(rng, 8)
        sol = solve_qp(QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.residuals.primal <= 1e-6
        assert sol.residuals.dual <= 1e-6
        assert sol.residuals.comp_gap <= 1e-6

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        q, c, a, b, lb, ub = random_box_qp(rng, 10)
        prob = QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub)
        s1 = solve_qp(prob)
        s2 = solve_qp(prob)
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective

    def test_determinism_bitwise_paper_scale_plan(self):
        # the S=20 planning relaxation of a stored day (T=96): the
        # benchmark's repeatability check compares objectives of repeated ops
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        grid = TimeGrid.daily()
        prob, _, _ = build_planning_qp(PlanningInstance(
            grid, toy_policy(grid, pv_capacity=466.4),
            toy_system(pv_capacity=466.4, capacity_kwh=233.2), scen, "S"))
        s1 = solve_qp(prob)
        s2 = solve_qp(prob)
        assert s1.status is SolveStatus.OPTIMAL
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective
        assert s1.iterations == s2.iterations

    def test_objective_scaling_leaves_argmin(self):
        rng = np.random.default_rng(7)
        q, c, a, b, lb, ub = random_box_qp(rng, 6)
        s1 = solve_qp(QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub))
        lam = 37.5
        s2 = solve_qp(QpProblem(q=lam * q, c=lam * c, a_ub=a, b_ub=b, lb=lb, ub=ub))
        assert np.allclose(s1.x, s2.x, atol=1e-6)
        assert s2.objective == pytest.approx(lam * s1.objective, rel=1e-6)

    def test_singular_kkt_is_certified_infeasible(self):
        # no PV, an evening production floor, and charging fixed to zero in
        # every period: the floor is out of reach, and solve_qp must certify
        # infeasibility, not raise
        sol = solve_qp(_unreachable_floor_node())
        assert sol.status is SolveStatus.INFEASIBLE
        assert "certificate" in sol.message

    def test_exactly_singular_factorizations_route_to_the_certificate(self, monkeypatch,
                                                                     superlu_only):
        # while the IPM runs on the node, every SuperLU factorization raises
        # as on an exact zero pivot: the symmetric one of what the node's
        # elimination rounds leave, then the pivoted one of its whole KKT
        # matrix. The IPM must stop there and leave the decision to the
        # elastic certificate, whose own IPM factors normally (its remainder
        # has the node's pattern, so only the running IPM tells them apart)
        node = _unreachable_floor_node()
        analysis = optim._analyze(node)
        dims = (analysis.rounds.remainder[2][0], analysis.dim)
        assert dims == (5, 32)
        on_node, calls = [], []
        ipm, splu = optim._ipm, optim.spla.splu

        def tracked_ipm(prob, **kwargs):
            on_node.append(prob is node)
            try:
                return ipm(prob, **kwargs)
            finally:
                on_node.pop()

        def singular_splu(k, **kwargs):
            if on_node[-1]:
                calls.append((k.shape[0], bool(kwargs)))
                raise RuntimeError("Factor is exactly singular")
            return splu(k, **kwargs)

        monkeypatch.setattr(optim, "_ipm", tracked_ipm)
        monkeypatch.setattr(optim.spla, "splu", singular_splu)
        sol = solve_qp(node)
        assert calls == [(5, True), (32, False)]   # symmetric, then pivoted, then stop
        assert sol.status is SolveStatus.INFEASIBLE
        assert "certificate" in sol.message

    def test_singular_band_factor_routes_to_the_certificate(self, monkeypatch):
        # the node's KKT matrix has a band of 6, and dgbtrf reports a zero
        # pivot on it; the IPM must stop after that one factorization, as
        # after a pivoted SuperLU one, and leave the decision to the elastic
        # certificate, whose matrix factors normally
        node = _unreachable_floor_node()
        analysis = optim._analyze(node)
        assert analysis.band == 6
        calls = []
        dgbtrf = optim.dgbtrf

        def singular_dgbtrf(ab, kl, ku, **kwargs):
            lu, piv, info = dgbtrf(ab, kl, ku, **kwargs)
            calls.append(ab.shape[1])
            return lu, piv, (analysis.dim if ab.shape[1] == analysis.dim else info)

        monkeypatch.setattr(optim, "dgbtrf", singular_dgbtrf)
        sol = solve_qp(node)
        assert calls[0] == analysis.dim and analysis.dim not in calls[1:]
        assert sol.status is SolveStatus.INFEASIBLE
        assert "certificate" in sol.message

    @pytest.mark.parametrize("message", ["Factor is exactly singular"], ids=["zero_pivot"])
    def test_forced_pivoted_fallback_matches_the_symmetric_path(self, monkeypatch, message):
        # the symmetric factorization raises as on an exact zero pivot; the
        # pivoted refactorization must reach the same optimum
        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        fast = solve_qp(prob)

        def faulty(kkt):
            raise RuntimeError(message)

        monkeypatch.setattr(optim, "_splu_symmetric", faulty)
        slow = solve_qp(prob)
        assert fast.status is slow.status is SolveStatus.OPTIMAL
        assert fast.refactors == 0
        # every iteration but the last, which only tests convergence
        assert slow.refactors == slow.iterations - 1
        assert slow.objective == pytest.approx(fast.objective, rel=1e-9)

    def test_non_finite_direction_stops_the_ipm(self, monkeypatch):
        # SuperLU hands back NaN without raising; the IPM must stop in the
        # first iteration and leave the verdict to the caller
        class NanLu:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        optim._analyze(prob)      # its ordering comes from a factorization of its own
        monkeypatch.setattr(optim, "_splu_symmetric", lambda kkt: NanLu())
        _, status, _, iterations, _ = optim._ipm(prob)
        assert status is None
        assert iterations == 1

    def test_non_finite_band_direction_stops_the_ipm(self, monkeypatch):
        # dgbtrs does not raise on NaN either; one scenario makes a KKT band
        # of 4 (three scenarios one of 12, which SuperLU factors)
        prob = _noisy_planning_qp(n_periods=8, n_scen=1)
        assert optim._analyze(prob).band == 4
        monkeypatch.setattr(optim._BandLu, "solve", lambda self, rhs: np.full_like(rhs, np.nan))
        _, status, _, iterations, _ = optim._ipm(prob)
        assert status is None
        assert iterations == 1

    def test_stalled_step_is_redone_with_pivoting(self, monkeypatch):
        # an unpivoted factorization can return a finite but huge direction
        # although no pivot is zero, and the step then collapses to ~1e-70;
        # the IPM must redo that iteration once with partial pivoting and go
        # on to the optimum, not stop and raise
        class HugeOnceLu:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, rhs):
                self.solves += 1
                return self.lu.solve(rhs) * (1e70 if self.solves == 1 else 1.0)

        splu_symmetric = optim._splu_symmetric
        factors = []

        def third_factor_huge(kkt, *args):
            factors.append(splu_symmetric(kkt, *args))
            return HugeOnceLu(factors[-1]) if len(factors) == 3 else factors[-1]

        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        optim._analyze(prob)      # its ordering comes from a factorization of its own
        monkeypatch.setattr(optim, "_splu_symmetric", third_factor_huge)
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.refactors == 1

    def test_stalled_band_step_is_redone_with_pivoting(self, monkeypatch):
        # a band LU picks its pivots in the band's order and can return a
        # finite but huge direction too (4 of 600 random storage MIQPs
        # stalled so); the iteration is redone once with SuperLU's partial
        # pivoting on the same matrix, in the same order
        solves = []

        class HugeOnceLu(optim._BandLu):
            def solve(self, rhs):
                # the predictor of the third factorization
                solves.append(rhs)
                return super().solve(rhs) * (1e70 if len(solves) == 5 else 1.0)

        prob = _noisy_planning_qp(n_periods=8, n_scen=1)
        fast = solve_qp(prob)
        monkeypatch.setattr(optim, "_BandLu", HugeOnceLu)
        sol = solve_qp(prob)
        assert sol.status is fast.status is SolveStatus.OPTIMAL
        assert fast.refactors == 0 and sol.refactors == 1
        assert sol.objective == pytest.approx(fast.objective, rel=1e-9)


def _unreachable_floor_node():
    grid = toy_grid(5, peak=(3, 4))
    policy = toy_policy(grid, price_peak=300.0, prod_min_frac_peak=0.05)
    system = toy_system(capacity_kwh=12.0, soc_frac=(0.25, 1.0))
    prob, _, _ = build_planning_qp(
        PlanningInstance(grid, policy, system, ScenarioSet.single(np.zeros(5)), "D"))
    ub = prob.ub.copy()
    ub[[i for i, _ in prob.comp_pairs]] = 0.0
    return replace(prob, ub=ub)


def _noisy_planning_qp(n_periods, n_scen, seed=5):
    grid = toy_grid(n_periods, peak=range(n_periods - 2, n_periods))
    policy = toy_policy(grid, pv_capacity=466.4)
    system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
    rng = np.random.default_rng(seed)
    shape = np.sin(np.linspace(0.0, np.pi, n_periods)) * 350.0
    values = np.clip(shape + rng.normal(0.0, 40.0, (n_scen, n_periods)), 0.0, 466.4)
    prob, _, _ = build_planning_qp(PlanningInstance(
        grid, policy, system, ScenarioSet(values, np.full(n_scen, 1.0 / n_scen)), "S"))
    return prob


def _assembler(prob):
    """The KKT assembler of _ipm for prob, and its parts: the standard-form
    rows, G', and the KKT diagonal and regularization."""
    analysis = optim._analyze(prob)
    a_all, _, _, _, _, g_t = analysis.standard_form(prob)
    hdiag = 2.0 * prob.q
    reg = optim._REG * max(1.0, float(np.max(hdiag, initial=0.0)))
    parts = (a_all, g_t, hdiag + reg, reg)
    return optim._KktAssembler(analysis, *parts), parts


def _dense(assemble, w):
    """The matrix the assembler fills at weights w, dense and in the order of
    K, read out of the analysis's order. A CSC matrix comes as
    ``assemble.csc()`` gives it, and band storage holds what the CSC matrix
    of the same call holds."""
    kkt = assemble(w)
    an = assemble._an
    dense = assemble.csc().toarray()
    if an.band is None:
        assert np.array_equal(kkt.toarray(), dense)
    else:
        bw, dim = an.band, an.dim
        assert kkt.shape == (3 * bw + 1, dim) and kkt.flags.f_contiguous
        assert not kkt[:bw].any()           # the rows dgbtrf fills in
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= bw)
        band = np.zeros((dim, dim))
        band[i, j] = kkt[2 * bw + i - j, j]
        assert np.array_equal(band, dense)
    return dense[np.ix_(an.rank, an.rank)]


def _factor(assemble, w):
    """The first factorization _ipm makes of the matrix filled at weights w."""
    kkt, band = assemble(w), assemble._an.band
    return optim._splu_symmetric(kkt) if band is None else optim._BandLu(kkt, band)


def _reference_kkt(a_all, g_t, d, reg, w):
    """[[diag(d) + A'WA, G'], [G, -reg I]] assembled from whole sparse matrices."""
    top = sp.diags(d) + (a_all.T @ sp.diags(w) @ a_all).tocsr()
    p = g_t.shape[1]
    if not p:
        return sp.csc_matrix(top)
    return sp.bmat([[top, g_t], [g_t.T, -reg * sp.eye(p)]], format="csc")


def _frozen(prob):
    """Mask of the fixed variables the IPM freezes, from the dense arrays.

    A fixed variable without an entry in ``a_ub`` (it has no bound rows) is
    a candidate. It is frozen when each row of ``a_eq`` that holds it also
    holds a variable that is neither a candidate nor bound-only: one with a
    row of A, each of which holds only it.
    """
    fixed = np.isfinite(prob.lb) & (prob.lb == prob.ub)
    a = prob.a_ub.toarray() != 0
    bounded = (np.isfinite(prob.lb) | np.isfinite(prob.ub)) & ~fixed
    bound_only = (a.any(axis=0) | bounded) & ~a[a.sum(axis=1) > 1].any(axis=0)
    candidate = fixed & ~a.any(axis=0)
    g = prob.a_eq.toarray() != 0
    loose = g[~(g & ~(bound_only | candidate)).any(axis=1)].any(axis=0)
    return candidate & ~loose


def _reference_condensed_kkt(prob, assemble, a_all, g_t, d, reg, w):
    """Dense Schur complement of what the assembler eliminates, in the whole matrix.

    The whole matrix loses the columns of the frozen variables; the
    eliminated variables form the block that is pivoted out, and the rest
    with every row of G is what is factored.
    """
    full = _reference_kkt(a_all, g_t, d, reg, w).toarray()
    n = a_all.shape[1]
    rest = np.concatenate([assemble.keep, np.arange(n, full.shape[0])])
    out = np.setdiff1d(np.flatnonzero(~_frozen(prob)), assemble.keep)
    border = full[np.ix_(rest, out)]
    return full[np.ix_(rest, rest)] - border @ np.linalg.solve(full[np.ix_(out, out)],
                                                               border.T)


def _eliminated_classes(prob, assemble):
    """Counts of the eliminated bound-only and single-row slack variables, and
    of the frozen ones."""
    a_all, _, g_all, _, _, _ = optim._analyze(prob).standard_form(prob)
    a = abs(a_all.toarray()) > 0
    g = abs(g_all.toarray()) > 0
    shared = a[a.sum(axis=1) > 1]
    out = np.setdiff1d(np.arange(prob.n_var), assemble.keep)
    bound_only = a.any(axis=0) & ~shared.any(axis=0)
    slack = (shared.sum(axis=0) == 1) & ~g.any(axis=0)
    return tuple(int(cls[out].sum()) for cls in (bound_only, slack, _frozen(prob)))


def _mixed_qp():
    """Six variables, one of each kind the assembler tells apart.

    x0, x1 share a row of A and have no row of G: both are single-row slack
    candidates; x2 has bounds only; x3 has a one-entry row of A and no
    bounds; x4 is fixed, with a quadratic cost; x5 is free and appears only
    in a two-entry equality row.
    """
    return QpProblem(q=[1.0, 0.0, 0.5, 0.0, 1.0, 2.0], c=[1.0, 1.0, 1.0, -1.0, 1.0, 1.0],
                     a_ub=[[1.0, -1.0, 0, 0, 0, 0], [0, 0, 0, 2.0, 0, 0]],
                     b_ub=[1.0, 3.0],
                     a_eq=[[0, 0, 1.0, 0, 0, 1.0]], b_eq=[0.5],
                     lb=[0.0, -np.inf, -1.0, -np.inf, 2.0, -np.inf],
                     ub=[4.0, 5.0, 1.0, np.inf, 2.0, np.inf])


def _kkt_case(case):
    """A planning relaxation, a node with its charges fixed at 0, a node
    whose SoC row of scenario 0, period 4 holds only fixed variables, and
    :func:`_mixed_qp`, whose fixed variable has a quadratic cost."""
    if case == "mixed":
        return _mixed_qp()
    prob = _noisy_planning_qp(n_periods=8, n_scen=3)
    if case == "relaxation":
        return prob
    lb, ub = prob.lb.copy(), prob.ub.copy()
    if case == "node":
        ub[prob.comp_pairs[:, 0]] = 0.0
    else:
        idx = dispatch_index(8, 3, 8)
        soc = idx.soc[0, 3:5]
        lb[soc] = ub[soc] = 0.5 * (lb[soc[0]] + ub[soc[0]])
        ub[[idx.charge[0, 4], idx.discharge[0, 4]]] = 0.0
    return replace(prob, lb=lb, ub=ub)


class TestKktAssembly:
    @pytest.mark.parametrize("case, has_rows, has_eq", [
        pytest.param("planning", True, True, id="planning"),
        pytest.param("bounds_only", True, False, id="bounds_only"),
        pytest.param("equality_only", False, True, id="equality_only"),
        pytest.param("node", True, True, id="node"),
        pytest.param("pinned_row", True, True, id="pinned_row")])
    def test_fixed_pattern_matches_whole_matrix_assembly(self, case, has_rows, has_eq):
        rng = np.random.default_rng(17)
        if case == "planning":
            prob = _noisy_planning_qp(n_periods=6, n_scen=2)
        elif case == "bounds_only":
            # every variable but the free one is eliminated
            q, c, _, _, lb, ub = random_box_qp(rng, 7)
            lb[3], ub[3] = -np.inf, np.inf
            prob = QpProblem(q=q, c=c, lb=lb, ub=ub)
        elif case == "equality_only":
            prob = QpProblem(q=[1.0, 0.0, 2.0], c=[0.0, 1.0, -1.0],
                             a_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], b_eq=[2.0, 0.5])
        else:
            prob = _kkt_case(case)
        assemble, parts = _assembler(prob)
        m, p = parts[0].shape[0], parts[1].shape[1]
        assert (m > 0, p > 0) == (has_rows, has_eq)
        if has_rows and has_eq:
            assert min(_eliminated_classes(prob, assemble)) > 0
        for _ in range(2 if m else 1):
            w = np.exp(rng.uniform(-8.0, 8.0, m))
            got = _dense(assemble, w)
            ref = _reference_condensed_kkt(prob, assemble, *parts, w)
            dim = assemble.keep.size + p
            assert got.shape == ref.shape == (dim, dim)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["relaxation", "node", "pinned_row", "mixed",
                                      "second_call"])
    def test_back_substituted_direction_solves_the_whole_system(self, case):
        # the condensed solve plus the closed-form pivots must solve the
        # whole KKT system without the frozen columns, dx of every
        # eliminated variable included, also at a node whose charges are
        # fixed, where a row of G holds only fixed variables, and for a
        # frozen variable with a quadratic cost; a frozen variable never moves.
        # condense and expand scale the border by the pivots of the last
        # call: the second_call case assembles at other weights first
        prob = _kkt_case("relaxation" if case == "second_call" else case)
        assemble, parts = _assembler(prob)
        a_all, g_t = parts[:2]
        rng = np.random.default_rng(41)
        assert min(_eliminated_classes(prob, assemble)) > 0
        if case == "second_call":
            assemble(np.exp(rng.uniform(-8.0, 8.0, a_all.shape[0])))
        w = np.exp(rng.uniform(-8.0, 8.0, a_all.shape[0]))
        lu = _factor(assemble, w)
        r1 = rng.standard_normal(prob.n_var)
        r2 = rng.standard_normal(g_t.shape[1])
        dx, dy = assemble.expand(lu.solve(assemble.condense(r1, r2)), r1)
        frozen = _frozen(prob)
        assert np.all(dx[frozen] == 0.0)
        rows = np.concatenate([np.flatnonzero(~frozen), prob.n_var + np.arange(dy.size)])
        full = _reference_kkt(*parts, w)[rows][:, rows]
        sol = np.concatenate([dx, dy])[rows]
        ref = sp.linalg.spsolve(full, np.concatenate([r1, r2])[rows])
        assert np.max(np.abs(sol - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_band_cases_match_on_superlu_too(self, superlu_only):
        # the cases above whose KKT matrix is a band of at most 8 (planning
        # 7, bounds_only 0, equality_only 2, mixed 1), assembled as CSC
        # matrices and factored by SuperLU
        for case, has_rows, has_eq in (("planning", True, True), ("bounds_only", True, False),
                                       ("equality_only", False, True)):
            self.test_fixed_pattern_matches_whole_matrix_assembly(case, has_rows, has_eq)
        self.test_back_substituted_direction_solves_the_whole_system("mixed")
        assert optim._RECENT and all(an.band is None for an in optim._RECENT)

    def test_row_of_fixed_variables_stays_regular(self):
        # the SoC row of scenario 0, period 4 holds only fixed variables. A
        # fixed variable is frozen only when each of its rows of a_eq keeps a
        # variable of the core, so these four stay factored with their unit
        # rows, and the solve factors without pivoting. (A presolve that
        # dropped every fixed variable left such rows exactly singular at
        # two nodes of the random storage instances.)
        prob = _kkt_case("pinned_row")
        assemble, parts = _assembler(prob)
        idx = dispatch_index(8, 3, 8)
        row = 2 * 4 + 1
        g = parts[1].T.tocsr()
        held = g[row].indices
        assert set(held) == {idx.soc[0, 3], idx.soc[0, 4], idx.charge[0, 4],
                             idx.discharge[0, 4]}
        assert np.isin(held, assemble.keep).all()
        assert not _frozen(prob)[held].any()
        unit_rows = g[prob.b_eq.size:]
        assert np.isin(held, unit_rows.indices).all() and np.all(unit_rows.data == 1.0)
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.refactors == 0
        assert sol.x[idx.soc[0, 4]] == pytest.approx(prob.ub[idx.soc[0, 3]], abs=1e-9)

    def test_exactly_the_bound_only_variables_are_eliminated(self):
        # of the slack candidates x0 and x1 only the first of their row, x0,
        # is eliminated; x2 and x3 are bound-only; x4 is frozen, without a
        # unit row; x5 stays
        prob = _mixed_qp()
        assemble, parts = _assembler(prob)
        assert assemble.keep.tolist() == [1, 5]
        kkt = _dense(assemble, np.ones(parts[0].shape[0]))
        assert kkt.shape == (2 + 1, 2 + 1)    # the a_eq row; x4 has no unit row
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[4] == pytest.approx(2.0, abs=1e-9)

    def test_one_slack_per_row_of_the_elastic_problem(self, monkeypatch):
        # the elastic problem of the certificate adds a nonnegative variable
        # to every inequality row. A deadband row then has two single-row
        # slack candidates, underdev and its elastic variable, and exactly
        # one of them is eliminated; every other row's elastic variable is
        # its only candidate and is eliminated. The certificate still fires.
        prob = _unreachable_floor_node()
        built = []

        class Recorded(optim._KktAssembler):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(optim, "_KktAssembler", Recorded)
        infeasible, mass = optim._certify_infeasible(prob)
        assert infeasible and mass > 0
        keep = set(built[-1].keep.tolist())
        n, t_n = prob.n_var, 5
        elastic = n + np.arange(prob.b_ub.size)
        idx = dispatch_index(t_n, 1, t_n)
        dead = 2 * (t_n - 1) + 2 * np.arange(t_n)
        for t, k in enumerate(dead):
            assert (idx.underdev[0, t] in keep) + (elastic[k] in keep) == 1
        others = np.setdiff1d(np.arange(prob.b_ub.size), dead)
        assert not keep & set(elastic[others].tolist())

    def test_symmetric_fill_grows_linearly_in_scenarios(self):
        # without pivoting the fill does not depend on the values. The
        # partially pivoted factorization of the same matrices grows
        # superlinearly: 5.1k non-zeros of L + U per scenario at S=5 against
        # 111k at S=50 (3.1k and 3.6k here)
        per_scenario = {}
        for n_scen in (5, 50):
            assemble, parts = _assembler(_noisy_planning_qp(n_periods=96, n_scen=n_scen))
            kkt = assemble(np.ones(parts[0].shape[0]))
            lu = optim._splu_symmetric(kkt)
            per_scenario[n_scen] = (lu.L.nnz + lu.U.nnz) / n_scen
        assert per_scenario[50] <= 1.5 * per_scenario[5]

    @staticmethod
    def _wide_kkt():
        """The assembler of an S=20 plan, its matrix at random weights as it
        comes, in the analysis's order, and the same matrix K in the order
        of the variables and rows."""
        assemble, parts = _assembler(_noisy_planning_qp(n_periods=96, n_scen=20))
        rng = np.random.default_rng(29)
        kkt = assemble(np.exp(rng.uniform(-6.0, 6.0, parts[0].shape[0])))
        rank = assemble._an.rank
        assert assemble._an.band is None
        return assemble, kkt, kkt[rank][:, rank]

    def test_wide_ordering_is_independent_rounds_then_minimum_degree(self):
        # the analysis of an S=20 plan pivots four rounds of columns first,
        # each an independent set of columns with at most 3, 3, 4 and 6
        # entries in the pattern the rounds before it leave, and orders the
        # 556 columns left as SuperLU's MMD orders the pattern of their
        # Schur complement, read from a matrix of its own on it
        assemble, ordered, _ = self._wide_kkt()
        an = assemble._an
        pattern = ordered != 0
        pattern.setdiag(True)
        done = 0
        for r, cap in zip(an.rounds.rounds, optim._ROUND_CAPS):
            n = r.n
            assert r.first == done
            done += n
            pivots = pattern[:n, :n]
            assert (pivots != sp.eye(n, dtype=bool)).nnz == 0
            assert np.diff(pattern[:, :n].tocsc().indptr).max() <= cap
            border = pattern[n:, :n].astype(float)
            pattern = (pattern[n:, n:] + (border @ border.T != 0)).tocsc()
        assert [r.n for r in an.rounds.rounds] == [1960, 1940, 960, 480]
        assert pattern.shape[0] == an.dim - an.rounds.n_elim == 556
        left = an.order[an.rounds.n_elim:]
        by_index = np.argsort(left)
        unordered = pattern[by_index][:, by_index].tocsc()
        unordered.sort_indices()
        mmd = optim._mmd_order((unordered.indices, unordered.indptr, unordered.shape))
        assert np.array_equal(left, left[by_index][mmd])
        remainder = pattern.tocsc()
        remainder.sort_indices()
        assert np.array_equal(remainder.indices, an.rounds.remainder[0])
        assert np.array_equal(remainder.indptr, an.rounds.remainder[1])

    def test_analysis_order_keeps_the_fill_and_the_solution(self):
        # the matrix filled in the analysis's order and factored without
        # reordering has the fill of SuperLU's MMD factorization of K, and
        # solves alike. Filling by rank where its inverse belongs multiplies
        # the fill by 29.1 here.
        assemble, ordered, kkt = self._wide_kkt()
        an = assemble._an
        fresh = optim._splu_symmetric(kkt, "MMD_AT_PLUS_A")
        reused = optim._splu_symmetric(ordered)
        assert reused.L.nnz + reused.U.nnz == fresh.L.nnz + fresh.U.nnz
        b = np.random.default_rng(31).standard_normal(kkt.shape[0])
        ref = fresh.solve(b)
        got = reused.solve(b[an.order])[an.rank]
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @staticmethod
    def _newton_systems(prob):
        """The weights and right-hand sides of every Newton direction of
        ``solve_qp(prob)``, predictor and corrector, in order."""
        seen = []

        class Recorded(optim._KktAssembler):
            def __call__(self, w):
                self.w = w
                return super().__call__(w)

            def condense(self, r1, r2):
                seen.append((self.w, r1, r2))
                return super().condense(r1, r2)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "_KktAssembler", Recorded)
            assert solve_qp(prob).status is SolveStatus.OPTIMAL
        return seen

    @staticmethod
    def _condensed_solves(prob, analyses, w, r1, r2):
        """The solution of the condensed system at weights w by the rounds of
        each analysis, and by SuperLU without pivoting on the whole matrix of
        the last one, in the same order, with that matrix and right-hand
        side."""
        got = []
        for analysis in analyses:
            a_all, _, _, _, _, g_t = analysis.standard_form(prob)
            hdiag = 2.0 * prob.q
            reg = optim._REG * max(1.0, float(np.max(hdiag, initial=0.0)))
            assemble = optim._KktAssembler(analysis, a_all, g_t, hdiag + reg, reg)
            kkt = assemble(w)
            rhs = assemble.condense(r1, r2)
            got.append(optim._RoundsLu(kkt, analysis.rounds).solve(rhs))
        return got, optim._splu_symmetric(kkt).solve(rhs), kkt, rhs

    @staticmethod
    def _backward_error(kkt, x, rhs):
        """The componentwise backward error ``max |K x - b| / (|K| |x| + |b|)``
        of the solution x of ``K x = b``."""
        scale = abs(kkt) @ np.abs(x) + np.abs(rhs)
        residual = np.abs(kkt @ x - rhs)
        return float(np.max(residual / np.where(scale > 0, scale, 1.0)))

    def _assert_as_accurate(self, got, ref, kkt, rhs):
        """The rounds' solution ``got`` of ``K x = b`` has a componentwise
        backward error no worse than 4 times that of SuperLU's whole-matrix
        solution ``ref``, or than 1e-13 where that one is smaller."""
        worst = 4.0 * self._backward_error(kkt, ref, rhs) + 1e-13
        assert self._backward_error(kkt, got, rhs) <= worst

    def test_rounds_solve_matches_a_whole_matrix_solve(self):
        # the Newton systems of the S=20 plan of season 4, day 132, solved by
        # the rounds of an analysis of its own and of one that takes the
        # ordering of the same day without PV in one more period (another
        # standard form, the same KKT pattern): bitwise alike, and as
        # accurate as SuperLU's solve of the whole matrix. In the first 8
        # iterations the two solutions agree to 1e-10; in the last ones,
        # where the componentwise backward errors of both reach 1e-10, they
        # differ by up to 4e-8, as the conditioning of those matrices allows.
        with np.load(DATA / "s20_season4_day132.npz") as data:
            values, weights = data["values_kw"], data["weights"]
        grid = TimeGrid.daily()
        policy, system = toy_policy(grid, pv_capacity=466.4), toy_system(466.4, 233.2)
        darker = values.copy()
        darker[:, np.flatnonzero(values.min(axis=0) > 0)[0]] = 0.0
        prob, other = (build_planning_qp(PlanningInstance(
            grid, policy, system, ScenarioSet(v, weights), "S"))[0] for v in (values, darker))
        cold = optim._Analysis(optim._pattern_key(prob))
        held = optim._Analysis(optim._pattern_key(other))
        warm = optim._Analysis(optim._pattern_key(prob), [held.ordering])
        assert cold.band is None and warm.ordering is held.ordering
        assert not np.array_equal(cold.frozen, held.frozen)
        systems = self._newton_systems(prob)
        assert len(systems) >= 20
        for i, (w, r1, r2) in enumerate(systems):
            (x_cold, x_warm), ref, kkt, rhs = self._condensed_solves(
                prob, (cold, warm), w, r1, r2)
            assert np.array_equal(x_cold, x_warm)
            self._assert_as_accurate(x_cold, ref, kkt, rhs)
            if i < 16:
                assert np.max(np.abs(x_cold - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_rounds_solve_matches_on_random_storage_kkts(self, superlu_only):
        # the random storage MIQPs of the screens below and a node of each
        # with its first charge fixed at 0, forced off the band path: every
        # Newton system as accurate as SuperLU's whole-matrix solve, and the
        # solutions of the first 4 iterations within 1e-10 of it. (These
        # solves end in 7 to 10 iterations; in the last ones the two differ
        # by up to 7e-8.)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                prob = random_storage_miqp(rng, int(rng.integers(2, 7)))
                ub = prob.ub.copy()
                ub[prob.comp_pairs[0, 0]] = 0.0
                for p in (prob, replace(prob, ub=ub)):
                    analysis = optim._analyze(p)
                    assert analysis.band is None
                    for i, (w, r1, r2) in enumerate(self._newton_systems(p)):
                        (got,), ref, kkt, rhs = self._condensed_solves(
                            p, (analysis,), w, r1, r2)
                        self._assert_as_accurate(got, ref, kkt, rhs)
                        if i < 8:
                            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _fixed_beside(lb0, ub0):
    """min x0^2 + 100 x1 s.t. x0 + x1 = 3, lb0 <= x0 <= ub0, x1 fixed at 1."""
    return QpProblem(q=[1.0, 0.0], c=[0.0, 100.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                     lb=[lb0, 1.0], ub=[ub0, 1.0])


class TestFrozenVariables:
    def test_dual_residual_leaves_out_a_frozen_variable(self):
        # x0 is free, so the row x0 + x1 = 3 keeps a variable of the core and
        # x1 is frozen. At the optimum x0 = 2 the row's multiplier is -4, so
        # x1's stationarity is 100 - 4 = 96: the multiplier of a unit row
        # x1 = 1 would take it up, and x1 has none. Counted in the stopping
        # test, it would keep the IPM from converging.
        prob = _fixed_beside(-np.inf, np.inf)
        assert optim._analyze(prob).frozen.tolist() == [1]
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[1] == 1.0
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.residuals.dual <= optim._TOL

    def test_fixed_variable_beside_bound_only_variables_is_not_frozen(self):
        # with bounds x0 is bound-only, so the row x0 + x1 = 3 would keep no
        # factored variable without x1: x1 stays, with its unit row
        prob = _fixed_beside(-10.0, 10.0)
        analysis = optim._analyze(prob)
        assert analysis.frozen.size == 0 and analysis.unit.tolist() == [1]
        assemble, parts = _assembler(prob)
        assert assemble.keep.tolist() == [1]
        assert _dense(assemble, np.ones(parts[0].shape[0])).shape == (1 + 2, 1 + 2)
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)


def _arrays(value):
    """Every ndarray in value, a tuple of them or of such tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in _arrays(item)]
    return []


class TestSharedAnalysis:
    def test_moved_entry_builds_its_own_analysis(self, monkeypatch):
        # same shapes and non-zero count, one entry of a ramp row moved to
        # another column: equal pattern arrays, not a hash, select an
        # analysis. The least recent of two is dropped before a third is
        # built, so a build never runs beside two others.
        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        a_ub = prob.a_ub.copy()
        k = int(np.flatnonzero(a_ub.indices[:a_ub.indptr[1]] == 0)[0])
        assert 2 not in a_ub.indices[:a_ub.indptr[1]]
        a_ub.indices[k] = 2
        moved = replace(prob, a_ub=a_ub)
        assert moved.a_ub.shape == prob.a_ub.shape and moved.a_ub.nnz == prob.a_ub.nnz
        held = []

        class Recorded(optim._Analysis):
            def __init__(self, *args):
                held.append(len(optim._RECENT))
                super().__init__(*args)

        monkeypatch.setattr(optim, "_RECENT", [])
        monkeypatch.setattr(optim, "_Analysis", Recorded)
        sols = [solve_qp(p) for p in (prob, moved, prob, _mixed_qp())]
        assert [sol.status for sol in sols] == [SolveStatus.OPTIMAL] * 4
        assert held == [0, 1, 1]
        assert optim._analyze(moved) is not optim._analyze(prob)
        assert optim._analyze(moved).a[0][k] == 2 and optim._analyze(prob).a[0][k] == 0

    def test_nodes_and_certificates_are_not_held(self, monkeypatch):
        # a branched MIQP's nodes build analyses of patterns that never
        # repeat (a fixed side moves to the equality rows), and so does an
        # infeasible problem's elastic certificate. Neither joins the held
        # analyses, so the root's stays held and solving the root again
        # builds none; each node still passes through the module's
        # solve_qp, where a tracer wraps it.
        rng = np.random.default_rng(0)
        prob = [random_storage_miqp(rng, int(rng.integers(2, 7))) for _ in range(4)][-1]
        built, nodes = [], []

        class Recorded(optim._Analysis):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        solve = optim.solve_qp

        def recorded_solve_qp(p, **kwargs):
            nodes.append(p)
            return solve(p, **kwargs)

        monkeypatch.setattr(optim, "_RECENT", [])
        monkeypatch.setattr(optim, "_Analysis", Recorded)
        monkeypatch.setattr(optim, "solve_qp", recorded_solve_qp)
        sol = solve_miqp(prob)
        assert sol.status is SolveStatus.OPTIMAL and sol.bnb.nodes >= 3
        assert len(nodes) == sol.bnb.nodes and len(built) == sol.bnb.nodes
        assert len(optim._RECENT) == 1 and optim._RECENT[0] is built[0]
        again = solve(prob)
        assert len(built) == sol.bnb.nodes
        assert again.status is SolveStatus.OPTIMAL

        infeasible = _unreachable_floor_node()
        assert solve(infeasible).status is SolveStatus.INFEASIBLE
        assert len(built) == sol.bnb.nodes + 2         # the problem, its certificate
        assert len(optim._RECENT) == 2
        assert optim._RECENT[0] is built[0] and optim._RECENT[1] is built[-2]

    def test_new_day_takes_the_held_ordering(self, monkeypatch):
        # two S=20 plans whose scenarios lack PV in different periods: their
        # standard forms differ in the frozen pv_used, their KKT patterns do
        # not. The second day's analysis takes the ordering the first's
        # holds, orders nothing itself, and solves bitwise as with an
        # ordering of its own.
        first, second = (_noisy_planning_qp(n_periods=96, n_scen=20, seed=seed)
                         for seed in (5, 6))
        assert not np.array_equal(optim._pattern_key(first)[-1],
                                  optim._pattern_key(second)[-1])
        monkeypatch.setattr(optim, "_RECENT", [])
        cold = solve_qp(second)
        own = optim._analyze(second).ordering
        optim._RECENT.clear()
        assert solve_qp(first).status is SolveStatus.OPTIMAL
        held = optim._analyze(first)
        specs = []
        splu = optim.spla.splu

        def recorded(k, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return splu(k, **kwargs)

        def no_ordering(*args, **kwargs):
            raise AssertionError("reverse Cuthill-McKee called")

        monkeypatch.setattr(optim.spla, "splu", recorded)
        monkeypatch.setattr(optim, "reverse_cuthill_mckee", no_ordering)
        warm = solve_qp(second)
        analysis = optim._analyze(second)
        assert analysis is not held and analysis.ordering is held.ordering
        assert analysis.band is None
        own_arrays, held_arrays = ([*o[3:5], *_arrays(tuple(vars(o[5]).values()))]
                                   for o in (own, held.ordering))
        assert len(own_arrays) == len(held_arrays) > 10
        assert all(np.array_equal(*pair) for pair in zip(own_arrays, held_arrays))
        assert specs and set(specs) == {"NATURAL"}
        assert cold.status is warm.status is SolveStatus.OPTIMAL
        assert np.array_equal(warm.x, cold.x)
        assert (warm.objective, warm.iterations, warm.refactors) == \
            (cold.objective, cold.iterations, cold.refactors)

    def test_shared_analysis_arrays_are_read_only(self):
        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        assert solve_qp(prob).status is SolveStatus.OPTIMAL
        analysis = optim._analyze(prob)
        arrays = [arr for value in vars(analysis).values() for arr in _arrays(value)]
        arrays += _arrays(tuple(vars(analysis.rounds).values()))
        assert len(arrays) > 40 and analysis.band is None
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            analysis.slot[0] = 0
        assemble, parts = _assembler(prob)
        with pytest.raises(ValueError, match="read-only"):
            assemble(np.ones(parts[0].shape[0])).indices[0] = 0

    def test_band_analysis_arrays_are_read_only(self):
        # its band storage is a new array per call, which dgbtrf overwrites
        prob = _noisy_planning_qp(n_periods=8, n_scen=1)
        assert solve_qp(prob).status is SolveStatus.OPTIMAL
        analysis = optim._analyze(prob)
        assert analysis.band == 4
        arrays = [arr for value in vars(analysis).values() for arr in _arrays(value)]
        assert len(arrays) > 40
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            analysis.rank[0] = 0
        assemble, parts = _assembler(prob)
        w = np.ones(parts[0].shape[0])
        assert assemble(w) is not assemble(w)


def _dense_standard_form(prob):
    """(A, b, G, h) of _Analysis.standard_form from dense unit rows, bound by
    bound; a frozen variable has no unit row."""
    n = prob.n_var
    fixed = np.isfinite(prob.lb) & (prob.lb == prob.ub)
    frozen = _frozen(prob)
    upper = [j for j in range(n) if np.isfinite(prob.ub[j]) and not fixed[j]]
    lower = [j for j in range(n) if np.isfinite(prob.lb[j]) and not fixed[j]]
    fix = [j for j in range(n) if fixed[j] and not frozen[j]]
    unit = np.eye(n)
    a = np.vstack([prob.a_ub.toarray(), unit[upper], -unit[lower]])
    b = np.concatenate([prob.b_ub, prob.ub[upper], -prob.lb[lower]])
    g = np.vstack([prob.a_eq.toarray(), unit[fix]])
    h = np.concatenate([prob.b_eq, prob.ub[fix]])
    return a, b, g, h


def _masked_step_len(v, dv):
    """Fraction-to-boundary step over the decreasing entries only."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, optim._STEP_FRACTION * float(np.min(-v[neg] / dv[neg])))


class TestStandardFormAndStep:
    # fixed at 2, fixed at 0, free, lower only, upper only, two-sided (twice)
    LB = np.array([2.0, 0.0, -np.inf, 0.0, -np.inf, -1.0, 0.5])
    UB = np.array([2.0, 0.0, np.inf, np.inf, 3.0, 4.0, 0.75])

    @pytest.mark.parametrize("has_ub, has_eq", [(True, True), (False, True), (True, False),
                                                (False, False)],
                             ids=["both", "no_a_ub", "no_a_eq", "bounds_only"])
    def test_matches_dense_unit_rows(self, has_ub, has_eq):
        rng = np.random.default_rng(31)
        n = self.LB.size
        rows = dict(c=rng.standard_normal(n), q=rng.uniform(0.0, 1.0, n),
                    lb=self.LB, ub=self.UB)
        if has_ub:
            rows.update(a_ub=sp.random(3, n, density=0.5, random_state=1, format="csr"),
                        b_ub=rng.standard_normal(3))
        if has_eq:
            rows.update(a_eq=sp.random(2, n, density=0.5, random_state=2, format="csr"),
                        b_eq=rng.standard_normal(2))
        prob = QpProblem(**rows)
        a_all, b_all, g_all, h_all, a_t, g_t = optim._analyze(prob).standard_form(prob)
        a, b, g, h = _dense_standard_form(prob)
        assert a_all.format == g_all.format == "csr"
        assert a_all.shape == a.shape == (3 * has_ub + 6, n)
        # x0 and x1, fixed, have entries in a_ub; without it both are frozen,
        # as each row of a_eq that holds them holds the free x2 too
        assert g_all.shape == g.shape == (2 * has_eq + 2 * has_ub, n)
        assert np.array_equal(a_all.toarray(), a) and np.array_equal(b_all, b)
        assert np.array_equal(g_all.toarray(), g) and np.array_equal(h_all, h)
        for t, dense in ((a_t, a), (g_t, g)):
            assert t.format == "csr"
            assert np.array_equal(t.toarray(), dense.T)

    def test_step_matches_the_masked_rule(self):
        rng = np.random.default_rng(37)
        for m in (1, 8, 1506):
            for _ in range(25):
                v = np.exp(rng.uniform(-20.0, 20.0, m))
                dv = rng.standard_normal(m) * np.exp(rng.uniform(-20.0, 20.0, m))
                got = optim._step_len(v, dv)
                assert 0.0 <= got <= 1.0
                assert got == pytest.approx(_masked_step_len(v, dv), rel=1e-15, abs=0.0)
        # no entry decreases, and a decrease too small to reach the boundary
        v = np.exp(rng.uniform(-5.0, 5.0, 50))
        assert optim._step_len(v, np.abs(rng.standard_normal(50))) == 1.0
        assert optim._step_len(v, np.zeros(50)) == 1.0
        assert optim._step_len(np.zeros(0), np.zeros(0)) == 1.0
        assert optim._step_len(v, -1e-3 * v) == 1.0

    def test_overflowing_ratio_gives_a_zero_step_without_raising(self):
        # dv / v overflows; _ipm calls _step_len with these traps set
        v, dv = np.array([1e-300, 1.0]), np.array([-1e10, -0.5])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            step = optim._step_len(v, dv)
        assert 0.0 <= step <= 1e-300


class TestSolveQpAgainstOracles:
    def test_tiny_instances_vs_dense_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(6):
            q, c, a, b, lb, ub = random_box_qp(rng, 3)
            prob = QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub)
            sol = solve_qp(prob)
            ref = dense_grid_qp(q, c, a, b, lb, ub)
            assert ref is not None
            ref_obj = prob.objective(ref)
            assert sol.objective <= ref_obj + 1e-4

    def test_random_instances_vs_projected_descent(self):
        rng = np.random.default_rng(42)
        for k in range(12):
            n = int(rng.integers(4, 13))
            q, c, a, b, lb, ub = random_box_qp(rng, n)
            prob = QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub)
            sol = solve_qp(prob)
            assert sol.status is SolveStatus.OPTIMAL, f"instance {k}"
            ref = projected_descent_qp(q, c, a, b, lb, ub)
            assert abs(sol.objective - prob.objective(ref)) <= 1e-4, f"instance {k}"


class TestSolveMiqp:
    def test_no_pairs_reduces_to_qp(self):
        rng = np.random.default_rng(5)
        q, c, a, b, lb, ub = random_box_qp(rng, 6)
        prob = QpProblem(q=q, c=c, a_ub=a, b_ub=b, lb=lb, ub=ub)
        assert solve_miqp(prob).objective == solve_qp(prob).objective

    def test_forced_simultaneous_flow_toy(self):
        # one period: net battery flow to the grid side is pinned by an
        # equality while the cost rewards both flows, so the relaxation
        # churns; the true optimum fixes the discharge side to zero
        prob = QpProblem(
            q=[0.0, 0.0], c=[-0.1, -0.2],
            a_eq=[[1.0, -1.0]], b_eq=[3.0],      # cha - dis = 3
            lb=[0.0, 0.0], ub=[5.0, 5.0],
            comp_pairs=((0, 1),))
        rel = solve_qp(prob)
        assert min(rel.x) > 1e-3                 # relaxation really churns
        ref_obj, _ = enumerate_miqp(prob)
        sol = solve_miqp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
        assert np.max(comp_violations(prob, sol.x)) <= 1e-6 * 5.0

    def test_random_storage_instances_match_enumeration(self):
        rng = np.random.default_rng(123)
        for k in range(12):
            t_n = int(rng.integers(2, 7))
            prob = random_storage_miqp(rng, t_n)
            ref_obj, _ = enumerate_miqp(prob)
            sol = solve_miqp(prob)
            if ref_obj == np.inf:
                assert sol.status is SolveStatus.INFEASIBLE, f"instance {k}"
                continue
            assert sol.objective <= ref_obj + 1e-5 * (1 + abs(ref_obj)), f"instance {k}"
            assert sol.objective >= ref_obj - 1e-5 * (1 + abs(ref_obj)), f"instance {k}"
            viol = comp_violations(prob, sol.x)
            assert np.max(viol) <= 1e-5, f"instance {k}"

    @staticmethod
    def _screen(seeds):
        # five random storage MIQPs per seed, drawn as the enumeration test
        # above draws them; too many to enumerate, but each must close
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for k in range(5):
                prob = random_storage_miqp(rng, int(rng.integers(2, 7)))
                sol = solve_miqp(prob)
                assert sol.status is SolveStatus.OPTIMAL, f"seed {seed}, instance {k}"

    def test_random_storage_screen_is_optimal(self):
        # seeds 0-9. Pivoting out every fixed variable made 26 of 300 such
        # MIQPs (seeds 0-59) raise SolverError.
        self._screen(range(10))

    def test_random_storage_screen_is_optimal_on_superlu(self, superlu_only):
        # every one of these KKT patterns is a band of at most 8, so the
        # screen above never reaches SuperLU; here seeds 0-3 are forced onto
        # the wide path: elimination rounds, then SuperLU on what they leave
        self._screen(range(4))
        assert optim._RECENT and all(an.band is None for an in optim._RECENT)

    def test_incumbent_within_the_root_duality_gap_is_accepted(self, monkeypatch):
        # min (x0 - 1)^2 + (x1 - 1)^2 - 2 with at most one of x0, x1 positive.
        # The root relaxation stops early, as an interior point may, at
        # (2, 2) with objective 0 and a total duality gap s.z of 2, whose
        # dual bound is the relaxation's optimum -2. The first incumbent,
        # (0, 1) at -1, lies below the root objective by far more than
        # 1e-6 * (1 + |obj|) but above the dual bound: weak duality holds,
        # and checking it against the root objective alone raised
        # SolverError here.
        prob = QpProblem(q=[1.0, 1.0], c=[-2.0, -2.0], lb=[0.0, 0.0], ub=[5.0, 5.0],
                         comp_pairs=[(0, 1)])
        x_root = np.array([2.0, 2.0])
        root = optim.QpSolution(x_root, prob.objective(x_root), SolveStatus.OPTIMAL,
                                optim.KktResiduals(primal=0.0, dual=0.0, comp_gap=2.0),
                                iterations=3)
        solve_qp = optim.solve_qp
        monkeypatch.setattr(optim, "solve_qp",
                            lambda p, **kwargs: root if p is prob else solve_qp(p, **kwargs))
        sol = solve_miqp(prob)
        assert root.objective == 0.0
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-8)
        assert sol.objective < root.objective - 1e-6 * (1.0 + abs(sol.objective))
        assert (sol.bnb.nodes, sol.bnb.gap, sol.iterations) == (2, 0.0, 3)
        assert np.max(comp_violations(prob, sol.x)) <= 1e-6

    def test_node_limit_reported(self, monkeypatch):
        # the root and one child are searched before the limit stops the
        # search; neither gives an incumbent, so the result is the root's
        # relaxation with the search's fields replaced
        monkeypatch.setattr(optim, "_NODE_LIMIT", 2)
        rng = np.random.default_rng(9)
        prob = random_storage_miqp(rng, 6)
        sol = solve_miqp(prob)
        root = solve_qp(prob)
        assert sol.status is SolveStatus.NODE_LIMIT_NO_INCUMBENT
        assert sol.bnb == optim.BnbStats(nodes=2, gap=np.inf)
        assert sol.objective == np.inf
        assert sol.message == "node limit reached without incumbent"
        assert np.array_equal(sol.x, root.x)
        assert (sol.iterations, sol.refactors) == (root.iterations, root.refactors) == (9, 0)
        assert sol.residuals == root.residuals

    def test_all_branches_infeasible(self):
        # min x0 + x1 over [0, 1]^2 with x0 + x1 >= 1.5: the relaxation is
        # optimal at (0.75, 0.75), but either side of the pair at zero
        # leaves the other at most 1
        prob = QpProblem(q=[0.0, 0.0], c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.5],
                         lb=[0.0, 0.0], ub=[1.0, 1.0], comp_pairs=[(0, 1)])
        root = solve_qp(prob)
        assert root.status is SolveStatus.OPTIMAL
        assert np.allclose(root.x, 0.75) and root.iterations == 6
        sol = solve_miqp(prob)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.message == "all branches infeasible"
        assert sol.bnb.nodes == 3
        assert sol.objective == np.inf
        assert np.array_equal(sol.x, root.x)
        assert sol.residuals == root.residuals
        assert (sol.iterations, sol.refactors) == (root.iterations, root.refactors)

    def test_determinism(self):
        rng = np.random.default_rng(31)
        prob = random_storage_miqp(rng, 5)
        s1 = solve_miqp(prob)
        s2 = solve_miqp(prob)
        assert s1.status == s2.status
        if s1.status is not SolveStatus.INFEASIBLE:
            assert np.array_equal(s1.x, s2.x)
            assert s1.bnb.nodes == s2.bnb.nodes


def _two_period_chain_problem(pv_caps, soc_max, dis_cap=10.0):
    """Variables per period: [p, pv, cha, dis, soc]; eta 0.9, dt 1 h."""
    eta = 0.9
    n = 10
    idx_p = np.array([0, 5])
    idx_pv = np.array([1, 6])
    idx_cha = np.array([2, 7])
    idx_dis = np.array([3, 8])
    idx_soc = np.array([4, 9])
    lb = np.full(n, 0.0)
    ub = np.zeros(n)
    lb[idx_p] = -10.0
    ub[idx_p] = 10.0
    ub[idx_pv] = pv_caps
    ub[idx_cha] = 10.0
    ub[idx_dis] = dis_cap
    ub[idx_soc] = soc_max
    lb[idx_soc[-1]] = 0.0
    ub[idx_soc[-1]] = 0.0
    rows, rhs = [], []
    for t in range(2):
        row = np.zeros(n)
        row[idx_p[t]], row[idx_pv[t]], row[idx_dis[t]], row[idx_cha[t]] = 1, -1, -1, 1
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n)
        row[idx_soc[t]] = 1.0
        if t:
            row[idx_soc[t - 1]] = -1.0
        row[idx_cha[t]] = -eta
        row[idx_dis[t]] = 1 / eta
        rows.append(row)
        rhs.append(0.0)
    prob = QpProblem(q=np.zeros(n), c=np.zeros(n),
                     a_eq=np.array(rows), b_eq=np.array(rhs), lb=lb, ub=ub,
                     comp_pairs=((2, 3), (7, 8)))
    hints = SocChainHints(pv_used=idx_pv, eta_charge=eta, eta_discharge=eta)
    return prob, hints


class TestRepairSimultaneousFlow:
    def test_identity_when_clean(self):
        prob, hints = _two_period_chain_problem(np.array([10.0, 0.0]), soc_max=10.0)
        x = np.zeros(10)
        x[[1, 2, 4]] = [8.0, 8.0, 0.9 * 8.0]      # clean charge from pv
        x[0] = 0.0
        x[8] = 0.9 * 8.0 * 0.9                     # clean final discharge
        x[5] = x[8]
        out = repair_simultaneous_flow(prob, x, hints)
        assert out.resolved
        assert np.array_equal(out.x, x)

    def test_flux_preserving_repair_with_pv_headroom(self):
        prob, hints = _two_period_chain_problem(np.array([10.0, 0.0]), soc_max=10.0)
        eta = 0.9
        x = np.zeros(10)
        # period 0: pv 8, cha 4, dis 1 -> production 5, simultaneous flow
        x[[0, 1, 2, 3]] = [5.0, 8.0, 4.0, 1.0]
        s0 = eta * 4.0 - 1.0 / eta
        x[4] = s0
        d1 = s0 * eta
        x[[5, 8]] = [d1, d1]
        x[9] = 0.0
        out = repair_simultaneous_flow(prob, x, hints)
        assert out.resolved
        # discharge side cleared, flux preserved, production untouched
        assert out.x[3] == pytest.approx(0.0, abs=1e-12)
        assert out.x[2] == pytest.approx(4.0 - 1.0 / (eta * eta), abs=1e-9)
        assert out.x[1] == pytest.approx(8.0 - (1.0 / (eta * eta) - 1.0), abs=1e-9)
        assert out.x[0] == 5.0
        assert out.x[4] == pytest.approx(s0, abs=1e-9)
        assert out.x[9] == pytest.approx(0.0, abs=1e-9)

    def test_period_without_pv_is_unresolved(self):
        # no PV to curtail: the flux-preserving reduction cannot move, and
        # the period is left for branching
        eta = 0.9
        prob, hints = _two_period_chain_problem(np.array([0.0, 0.0]), soc_max=2.5)
        x = np.zeros(10)
        x[[0, 2, 3]] = [-3.0, 5.0, 2.0]           # withdraw 3, churn 5/2
        s0 = eta * 5.0 - 2.0 / eta
        x[4] = s0
        x[[5, 8]] = [s0 * eta, s0 * eta]
        out = repair_simultaneous_flow(prob, x, hints)
        assert not out.resolved
        assert out.x[0] == -3.0                    # production untouched

    def test_paper_scale_block_in_one_pass(self):
        # S=20 scenarios over T=96 periods, simultaneous flow with PV
        # headroom in about half of the cells of a point that meets every
        # equality row; the SoC rises in even periods and falls back in odd
        s_n, t_n = 20, 96
        grid = toy_grid(t_n, peak=range(76, 84))
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        rng = np.random.default_rng(3)
        pv = rng.uniform(50.0, 400.0, (s_n, t_n))
        idx, dt = dispatch_index(t_n, s_n, t_n), grid.delta_t_hours
        # equality rows only, the engagement columns free
        prob, hints = dispatch_problem(idx, pv, np.full(s_n, 1.0 / s_n), grid, policy,
                                       system, [], np.zeros(0), (idx.eng, -np.inf, np.inf))
        eta_c, eta_d = system.eta_charge, system.eta_discharge
        rate = np.repeat(rng.uniform(0.0, 50.0, (s_n, t_n // 2)), 2, axis=1)
        rate[:, 1::2] *= -1.0                    # SoC rate eta_c*cha - dis/eta_d
        churn = np.where(rng.random((s_n, t_n)) < 0.5, rng.uniform(1.0, 10.0, (s_n, t_n)),
                         0.0)
        up = rate >= 0.0
        cha = np.where(up, rate / eta_c + churn, churn / (eta_c * eta_d))
        dis = np.where(up, eta_c * eta_d * churn, -rate * eta_d + churn)
        x = np.zeros(prob.n_var)
        x[idx.pv_used] = 0.5 * pv
        x[idx.charge] = cha
        x[idx.discharge] = dis
        x[idx.production] = x[idx.pv_used] + dis - cha
        x[idx.soc] = system.soc_init_kwh + dt * np.cumsum(eta_c * cha - dis / eta_d, axis=1)
        tols = optim._pair_tols(prob)
        assert np.sum(comp_violations(prob, x) > tols) > s_n * t_n // 3
        assert np.max(np.abs(prob.a_eq @ x - prob.b_eq)) <= 1e-12 * np.max(np.abs(x))

        # reference: the per-period loop that the array pass replaces, over
        # the planner's (S, T) layout and with each tolerance from the bounds
        ref, k = x.copy(), eta_c * eta_d
        for c, d, p in zip(idx.charge.ravel(), idx.discharge.ravel(), idx.pv_used.ravel()):
            tol = 1e-6 * max(1.0, min(prob.ub[c], prob.ub[d]))
            if min(ref[c], ref[d]) <= tol:
                continue
            dc, dd = (ref[c], k * ref[c]) if k * ref[c] <= ref[d] else (ref[d] / k, ref[d])
            need = dc - dd
            frac = 1.0 if need <= ref[p] + 1e-12 else (ref[p] / need if need > 0 else 0.0)
            ref[c] = max(ref[c] - frac * dc, 0.0)
            ref[d] = max(ref[d] - frac * dd, 0.0)
            ref[p] = max(ref[p] - frac * need, 0.0)

        out = repair_simultaneous_flow(prob, x, hints)
        assert out.resolved
        assert np.array_equal(out.x, ref)
        assert np.max(np.abs(prob.a_eq @ out.x - prob.a_eq @ x)) <= 1e-12 * np.max(np.abs(x))
        assert np.array_equal(out.x[idx.production], x[idx.production])
        assert prob.objective(out.x) == pytest.approx(prob.objective(x), rel=1e-12, abs=1e-12)
        assert np.all(comp_violations(prob, out.x) <= tols)
