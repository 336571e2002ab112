"""QP interior point, complementarity branch-and-bound, and the flow repair."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from capfirm import optim
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
from capfirm.planner import PlanningInstance, build_planning_qp, dispatch_block
from capfirm.scenarios import ScenarioSet

from oracles import (
    dense_grid_qp,
    enumerate_miqp,
    projected_descent_qp,
    random_box_qp,
    random_storage_miqp,
)
from toys import toy_grid, toy_policy, toy_system


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

    def test_exactly_singular_factorizations_route_to_the_certificate(self, monkeypatch):
        # both the symmetric and the pivoted factorization of the node's KKT
        # matrix raise as SuperLU does on an exact zero pivot; the IPM must
        # stop and leave the decision to the elastic certificate, whose KKT
        # matrix has another dimension and factors normally
        node = _unreachable_floor_node()
        parts = _kkt_parts(node)
        dim = optim._KktAssembler(*parts)(np.ones(parts[0].shape[0])).shape[0]
        calls = []
        splu = optim.spla.splu

        def singular_splu(k, **kwargs):
            if k.shape[0] == dim:
                calls.append(bool(kwargs))
                raise RuntimeError("Factor is exactly singular")
            return splu(k, **kwargs)

        monkeypatch.setattr(optim.spla, "splu", singular_splu)
        sol = solve_qp(node)
        assert calls == [True, False]          # symmetric, then pivoted, then stop
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

        monkeypatch.setattr(optim, "_splu_symmetric", lambda kkt: NanLu())
        _, status, _, iterations, _ = optim._ipm(_noisy_planning_qp(n_periods=8, n_scen=3))
        assert status is None
        assert iterations == 1

    def test_stalled_step_is_redone_with_pivoting(self, monkeypatch):
        # an unpivoted factorization can return a finite but huge direction
        # although no pivot is zero, and the step then collapses to ~1e-70;
        # the IPM must redo that iteration once with partial pivoting and go
        # on to the optimum, not stop and raise
        class HugeOnceLu:
            def __init__(self, lu):
                self.lu, self.perm_c, self.solves = lu, lu.perm_c, 0

            def solve(self, rhs):
                self.solves += 1
                return self.lu.solve(rhs) * (1e70 if self.solves == 1 else 1.0)

        splu_symmetric = optim._splu_symmetric
        factors = []

        def third_factor_huge(kkt, *args):
            factors.append(splu_symmetric(kkt, *args))
            return HugeOnceLu(factors[-1]) if len(factors) == 3 else factors[-1]

        monkeypatch.setattr(optim, "_splu_symmetric", third_factor_huge)
        sol = solve_qp(_noisy_planning_qp(n_periods=8, n_scen=3))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.refactors == 1


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


def _kkt_parts(prob):
    """The standard-form rows, G', and the KKT diagonal and regularization of _ipm."""
    a_all, _, g_all, _ = optim._standard_form(prob)
    hdiag = 2.0 * prob.q
    reg = optim._REG * max(1.0, float(np.max(hdiag, initial=0.0)))
    return a_all, g_all.T.tocsr(), hdiag + reg, reg


def _reference_kkt(a_all, g_t, d, reg, w):
    """[[diag(d) + A'WA, G'], [G, -reg I]] assembled from whole sparse matrices."""
    top = sp.diags(d) + (a_all.T @ sp.diags(w) @ a_all).tocsr()
    p = g_t.shape[1]
    if not p:
        return sp.csc_matrix(top)
    return sp.bmat([[top, g_t], [g_t.T, -reg * sp.eye(p)]], format="csc")


def _reference_condensed_kkt(keep, a_all, g_t, d, reg, w):
    """Schur complement of the eliminated variables' block of the whole matrix.

    That block must be diagonal and meet the retained variables nowhere.
    """
    full = _reference_kkt(a_all, g_t, d, reg, w)
    n = a_all.shape[1]
    elim = np.setdiff1d(np.arange(n), keep)
    rest = np.concatenate([keep, np.arange(n, full.shape[0])])
    block = full[elim][:, elim]
    assert (block - sp.diags(block.diagonal())).nnz == 0
    assert full[keep][:, elim].nnz == 0
    border = full[rest][:, elim]
    return (full[rest][:, rest] - border @ sp.diags(1.0 / block.diagonal()) @ border.T).tocsc()


class TestKktAssembly:
    @pytest.mark.parametrize("case, has_rows, has_eq", [
        pytest.param("planning", True, True, id="planning"),
        pytest.param("bounds_only", True, False, id="bounds_only"),
        pytest.param("equality_only", False, True, id="equality_only")])
    def test_fixed_pattern_matches_whole_matrix_assembly(self, case, has_rows, has_eq):
        rng = np.random.default_rng(17)
        if case == "planning":
            prob = _noisy_planning_qp(n_periods=6, n_scen=2)
        elif case == "bounds_only":
            # every variable but the free one is eliminated
            q, c, _, _, lb, ub = random_box_qp(rng, 7)
            lb[3], ub[3] = -np.inf, np.inf
            prob = QpProblem(q=q, c=c, lb=lb, ub=ub)
        else:
            prob = QpProblem(q=[1.0, 0.0, 2.0], c=[0.0, 1.0, -1.0],
                             a_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], b_eq=[2.0, 0.5])
        parts = _kkt_parts(prob)
        m, p = parts[0].shape[0], parts[1].shape[1]
        assert (m > 0, p > 0) == (has_rows, has_eq)
        assemble = optim._KktAssembler(*parts)
        for _ in range(2 if m else 1):
            w = np.exp(rng.uniform(-8.0, 8.0, m))
            got = assemble(w).toarray()
            ref = _reference_condensed_kkt(assemble.keep, *parts, w).toarray()
            assert got.shape == ref.shape == (assemble.keep.size + p,) * 2
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("charges_fixed", [False, True], ids=["relaxation", "node"])
    def test_back_substituted_direction_solves_the_whole_system(self, charges_fixed):
        # the condensed solve plus dx_E = (r1_E - G_E' dy) / D_E must solve
        # the whole KKT system, also at a branch-and-bound node whose fixed
        # charges stay in the factored core as equality rows
        prob = _noisy_planning_qp(n_periods=8, n_scen=3)
        if charges_fixed:
            ub = prob.ub.copy()
            ub[[i for i, _ in prob.comp_pairs]] = 0.0
            prob = replace(prob, ub=ub)
        parts = _kkt_parts(prob)
        a_all, g_t = parts[:2]
        rng = np.random.default_rng(41)
        assemble = optim._KktAssembler(*parts)
        w = np.exp(rng.uniform(-8.0, 8.0, a_all.shape[0]))
        lu = optim._splu_symmetric(assemble(w))
        r1 = rng.standard_normal(prob.n_var)
        r2 = rng.standard_normal(g_t.shape[1])
        dx, dy = assemble.expand(lu.solve(assemble.condense(r1, r2)), r1)
        full = _reference_kkt(*parts, w)
        sol = np.concatenate([dx, dy])
        ref = sp.linalg.spsolve(full, np.concatenate([r1, r2]))
        assert np.max(np.abs(sol - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_exactly_the_bound_only_variables_are_eliminated(self):
        # x0, x1 share a row of A (coupled); x2 has bounds only; x3 has a
        # one-entry row of A and no bounds; x4 is fixed, an equality row of
        # the standard form; x5 is free and appears only in an equality row
        prob = QpProblem(q=[1.0, 0.0, 0.5, 0.0, 1.0, 2.0], c=[1.0, 1.0, 1.0, -1.0, 1.0, 1.0],
                         a_ub=[[1.0, -1.0, 0, 0, 0, 0], [0, 0, 0, 2.0, 0, 0]],
                         b_ub=[1.0, 3.0],
                         a_eq=[[0, 0, 1.0, 0, 0, 1.0]], b_eq=[0.5],
                         lb=[0.0, -np.inf, -1.0, -np.inf, 2.0, -np.inf],
                         ub=[4.0, 5.0, 1.0, np.inf, 2.0, np.inf])
        parts = _kkt_parts(prob)
        assemble = optim._KktAssembler(*parts)
        assert assemble.keep.tolist() == [0, 1, 4, 5]
        kkt = assemble(np.ones(parts[0].shape[0]))
        assert kkt.shape == (4 + 2, 4 + 2)    # two equality rows: a_eq and x4
        sol = solve_qp(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[4] == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_fill_grows_linearly_in_scenarios(self):
        # without pivoting the fill does not depend on the values. The
        # partially pivoted factorization of the same matrices grows
        # superlinearly: 5.1k non-zeros of L + U per scenario at S=5 against
        # 111k at S=50 (3.1k and 3.6k here)
        per_scenario = {}
        for n_scen in (5, 50):
            parts = _kkt_parts(_noisy_planning_qp(n_periods=96, n_scen=n_scen))
            kkt = optim._KktAssembler(*parts)(np.ones(parts[0].shape[0]))
            lu = optim._splu_symmetric(kkt)
            per_scenario[n_scen] = (lu.L.nnz + lu.U.nnz) / n_scen
        assert per_scenario[50] <= 1.5 * per_scenario[5]

    def test_reused_ordering_keeps_the_fill_and_the_solution(self):
        # _ipm takes the ordering of its first factorization and fills the
        # later matrices permuted by it. Permuting by perm_c where its inverse
        # belongs multiplies the fill by 21.6 here.
        parts = _kkt_parts(_noisy_planning_qp(n_periods=96, n_scen=20))
        m = parts[0].shape[0]
        rng = np.random.default_rng(29)
        assemble = optim._KktAssembler(*parts)
        perm = optim._splu_symmetric(assemble(np.exp(rng.uniform(-6.0, 6.0, m)))).perm_c
        w = np.exp(rng.uniform(-6.0, 6.0, m))
        kkt = assemble(w).copy()
        fresh = optim._splu_symmetric(kkt)
        assemble.permute(perm)
        inv = np.argsort(perm)
        permuted = assemble(w)
        assert (permuted != kkt[inv][:, inv]).nnz == 0
        reused = optim._splu_symmetric(permuted, "NATURAL")
        assert reused.L.nnz + reused.U.nnz == fresh.L.nnz + fresh.U.nnz
        b = rng.standard_normal(kkt.shape[0])
        ref = fresh.solve(b)
        got = reused.solve(b[inv])[perm]
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


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

    def test_node_limit_reported(self):
        rng = np.random.default_rng(9)
        prob = random_storage_miqp(rng, 6)
        sol = solve_miqp(prob, node_limit=2)
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.NODE_LIMIT_INCUMBENT,
                              SolveStatus.NODE_LIMIT_NO_INCUMBENT,
                              SolveStatus.INFEASIBLE)

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
        block = dispatch_block(pv, np.full(s_n, 1.0 / s_n), t_n, grid, policy, system)
        prob = QpProblem(q=block.q, c=block.c, a_eq=block.a_eq, b_eq=block.b_eq,
                         lb=block.lb, ub=block.ub, comp_pairs=block.pairs)
        idx, dt = block.index, grid.delta_t_hours
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

        out = repair_simultaneous_flow(prob, x, block.hints)
        assert out.resolved
        assert np.array_equal(out.x, ref)
        assert np.max(np.abs(prob.a_eq @ out.x - prob.a_eq @ x)) <= 1e-12 * np.max(np.abs(x))
        assert np.array_equal(out.x[idx.production], x[idx.production])
        assert prob.objective(out.x) == pytest.approx(prob.objective(x), rel=1e-12, abs=1e-12)
        assert np.all(comp_violations(prob, out.x) <= tols)
