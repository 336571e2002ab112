"""Day-ahead planning: problem build, optimality, plan invariants."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from capfirm import optim, planner
from capfirm.controller import build_control_qp, oracle_control
from capfirm.domain import (
    DispatchTrace,
    EngagementPlan,
    InvalidConfigError,
    ShapeError,
    TimeGrid,
    battery_floor_scale,
    check_engagement,
    money_coefficients,
    net_remuneration_series,
)
from capfirm.planner import (
    PlanningError,
    PlanningInstance,
    build_planning_qp,
    dispatch_index,
    plan,
    plan_deterministic,
)
from capfirm.scenarios import ScenarioSet
from capfirm.optim import SolveStatus

from oracles import enumerate_miqp
from toys import no_bess_system, toy_grid, toy_policy, toy_system

DATA = Path(__file__).resolve().parent / "data"


class TestBuild:
    def test_problem_dimensions_stochastic(self):
        grid = toy_grid(96, peak=range(76, 84))
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 400, (20, 96))
        scen = ScenarioSet(values, np.full(20, 1 / 20))
        prob, hints, idx = build_planning_qp(
            PlanningInstance(grid, policy, system, scen, "S"))
        assert prob.n_var == 96 + 6 * 96 * 20 == 11616
        assert prob.b_ub.size == 2 * 95 + 2 * 96 * 20
        assert prob.b_eq.size == 2 * 96 * 20
        assert prob.comp_pairs.shape == (96 * 20, 2)
        assert hints.pv_used.shape == (96 * 20,)

    def test_deterministic_shape(self):
        grid = toy_grid(96)
        policy = toy_policy(grid)
        system = toy_system()
        scen = ScenarioSet.single(np.zeros(96))
        prob, _, _ = build_planning_qp(
            PlanningInstance(grid, policy, system, scen, "D"))
        assert prob.n_var == 96 * 7

    def test_costs_are_the_tender_money_times_the_weights(self):
        # unequal weights and a period of 0.3 h, so a product taken in
        # another order than money_coefficients' rounds differently
        grid = toy_grid(8, delta_t=0.3, peak=(6, 7))
        policy = toy_policy(grid, 70.0, 130.0)
        system = toy_system(capacity_kwh=20.0)
        rng = np.random.default_rng(11)
        base = np.array([0.0, 15.0, 40.0, 70.0, 75.0, 50.0, 25.0, 5.0])
        values = np.clip(base + rng.normal(0.0, 8.0, (3, 8)), 0.0, 100.0)
        weights = np.array([0.5, 0.3, 0.2])
        instance = PlanningInstance(grid, policy, system,
                                    ScenarioSet(values, weights), "S")
        prob, _, idx = build_planning_qp(instance)
        revenue, penalty = money_coefficients(policy, grid)
        w = weights[:, None]
        assert np.array_equal(prob.c[idx.production], -w * revenue)
        assert np.array_equal(prob.q[idx.underdev], w * penalty)
        assert np.array_equal(prob.c[idx.underdev],
                              4.0 * policy.deadband_kw * (w * penalty))
        res = plan(instance)
        net = sum(wi * float(np.sum(net_remuneration_series(
            res.engagement.values_kw, trace.production_kw, policy, grid)))
            for wi, trace in zip(weights, res.traces))
        assert abs(res.objective + net) <= 1e-6 * (1.0 + abs(net))

    def test_sparse_rows_are_canonical_int32_csr(self, monkeypatch):
        # the solver compares the indptr and indices of these matrices across
        # days (optim._pattern_key), so every plan and control matrix must
        # come out in one form: canonical CSR (sorted, no duplicates) with
        # int32 indices, holding each given value at its (row, column); a
        # (row, column) given twice, which the COO build would sum, raises
        grid = toy_grid(24, peak=range(18, 20))
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        values = np.random.default_rng(2).uniform(0.0, 400.0, (3, 24))
        calls = []
        sparse_rows = planner.sparse_rows

        def recorded(entries, n_rows, n_cols):
            calls.append((entries, n_rows, n_cols, sparse_rows(entries, n_rows, n_cols)))
            return calls[-1][-1]

        monkeypatch.setattr(planner, "sparse_rows", recorded)
        res = plan(PlanningInstance(grid, policy, system,
                                    ScenarioSet(values, np.full(3, 1.0 / 3)), "S"))
        build_control_qp(res.engagement, values[0], policy, system, grid)
        with np.load(DATA / "s20_season4_day132.npz") as stored:
            scen = ScenarioSet(stored["values_kw"], stored["weights"])
        daily = TimeGrid.daily()
        build_planning_qp(PlanningInstance(
            daily, toy_policy(daily, pv_capacity=466.4), toy_system(466.4, 233.2), scen, "S"))
        # a_eq and a_ub of the toy plan, of its control and of the S=20 plan
        assert len(calls) == 6
        assert [got.shape for *_, got in calls[4:]] == [(3840, 11616), (4030, 11616)]
        for entries, n_rows, n_cols, got in calls:
            rows, cols, data = (np.concatenate([np.broadcast_to(e[k], np.shape(e[0])).ravel()
                                                for e in entries]) for k in range(3))
            assert got.shape == (n_rows, n_cols) and got.nnz == data.size
            assert got.indptr.dtype == got.indices.dtype == np.int32
            # rewrapped, so that scipy checks the arrays rather than a flag
            assert sp.csr_matrix((got.data, got.indices, got.indptr),
                                 shape=got.shape).has_canonical_format
            assert np.array_equal(np.asarray(got[rows, cols]).ravel(), data)
        rows = np.arange(3)
        with pytest.raises(ValueError, match="twice"):
            sparse_rows([(rows, rows, 1.0), (rows[1:], rows[1:], 2.0)], 3, 3)
        # no triples: an empty matrix of the given shape, in the same form
        empty = sparse_rows([], 4, 5)
        assert empty.shape == (4, 5) and empty.nnz == 0
        assert empty.indptr.dtype == empty.indices.dtype == np.int32
        assert np.array_equal(empty.indptr, np.zeros(5))

    def test_system_and_tender_pv_capacity_must_agree(self):
        # the tender's capacity sets the production bounds and the penalty,
        # the system's describes the plant: a 466.4 kW tender on a 100 kW
        # plant is a mistake, whichever entry point receives it
        grid = toy_grid(8)
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=100.0)
        pv = np.array([0.0, 10.0, 35.0, 70.0, 80.0, 45.0, 15.0, 0.0])
        with pytest.raises(InvalidConfigError, match="PV capacity"):
            plan(PlanningInstance(grid, policy, system,
                                  ScenarioSet(np.stack([pv, 0.5 * pv]), np.full(2, 0.5)), "S"))
        with pytest.raises(InvalidConfigError, match="PV capacity"):
            plan_deterministic(pv, grid, policy, system, mode="D")
        with pytest.raises(InvalidConfigError, match="PV capacity"):
            oracle_control(EngagementPlan(np.zeros(8)), pv, policy, system, grid)
        # round-off in a capacity computed another way is no mismatch
        close = toy_system(pv_capacity=466.4 * (1.0 + 4e-16))
        build_planning_qp(PlanningInstance(grid, policy, close, ScenarioSet.single(pv), "D"))

    def test_round_off_negative_pv_is_clipped(self):
        # scenario values may sit a hair below zero; the pv_used bound must
        # not become inconsistent with its zero floor
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = toy_system()
        pv = np.array([0.0, 20.0, 50.0, 70.0, 40.0, -5e-10])
        res = plan(PlanningInstance(grid, policy, system, ScenarioSet.single(pv), "Dstar"))
        clean = plan_deterministic(np.clip(pv, 0.0, None), grid, policy, system,
                                   mode="Dstar")
        assert res.objective == pytest.approx(clean.objective, abs=1e-9)

    def test_mode_validation(self):
        grid = toy_grid(4)
        policy = toy_policy(grid)
        system = toy_system()
        two = ScenarioSet(np.zeros((2, 4)), np.full(2, 0.5))
        with pytest.raises(ValueError):
            PlanningInstance(grid, policy, system, two, "D")
        with pytest.raises(ValueError):
            PlanningInstance(grid, policy, system, two, "X")

    def test_policy_length_must_match_grid(self):
        # a 48-period policy on a 96-period grid failed inside dispatch_problem
        # with numpy's broadcast error
        grid = toy_grid(96)
        with pytest.raises(ShapeError, match="policy"):
            PlanningInstance(grid, toy_policy(toy_grid(48)), toy_system(),
                             ScenarioSet.single(np.zeros(96)), "D")


class TestPlanBasics:
    def test_nothing_to_sell_costs_nothing(self):
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = no_bess_system()
        res = plan_deterministic(np.zeros(8), grid, policy, system, mode="D")
        assert res.objective == pytest.approx(0.0, abs=1e-7)
        # production is pinned to zero by the balance, so no penalty either
        assert np.allclose(res.traces[0].production_kw, 0.0, atol=1e-6)
        assert check_engagement(res.engagement, policy).ok

    def test_perfect_foresight_tracks_pv(self):
        grid = toy_grid(8)
        policy = toy_policy(grid, ramp_frac_offpeak=1.0)
        system = no_bess_system()
        pv = np.array([0.0, 10.0, 30.0, 60.0, 80.0, 50.0, 20.0, 0.0])
        res = plan_deterministic(pv, grid, policy, system, mode="Dstar")
        dt, price_kwh = 0.25, 100.0 / 1000.0
        pure_revenue = -np.sum(dt * price_kwh * pv)
        assert res.objective == pytest.approx(pure_revenue, abs=1e-6)
        assert np.allclose(res.traces[0].production_kw, pv, atol=1e-5)

    def test_stochastic_single_scenario_equals_deterministic(self):
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = toy_system()
        pv = np.array([0.0, 20.0, 50.0, 70.0, 40.0, 10.0])
        res_d = plan_deterministic(pv, grid, policy, system, mode="D")
        res_s = plan(PlanningInstance(grid, policy, system,
                                      ScenarioSet.single(pv), "S"))
        assert res_s.objective == pytest.approx(res_d.objective, abs=1e-9)
        assert np.allclose(res_s.engagement.values_kw,
                           res_d.engagement.values_kw, atol=1e-9)

    def test_zero_capacity_bess_never_flows(self):
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = no_bess_system()
        pv = np.array([0.0, 30.0, 60.0, 60.0, 30.0, 0.0])
        res = plan_deterministic(pv, grid, policy, system, mode="D")
        assert np.allclose(res.traces[0].charge_kw, 0.0, atol=1e-6)
        assert np.allclose(res.traces[0].discharge_kw, 0.0, atol=1e-6)


class TestPeakFloorToy:
    def _setup(self):
        # evening peak at the last two periods; the battery must pre-charge
        # from grid withdrawals because there is no PV at all
        grid = toy_grid(6, peak=(4, 5))
        policy = toy_policy(grid, price_offpeak=100.0, price_peak=300.0,
                            pv_capacity=100.0, prod_min_frac_peak=0.05)
        system = toy_system(pv_capacity=100.0, capacity_kwh=12.0,
                            soc_frac=(0.25, 1.0))
        scen = ScenarioSet.single(np.zeros(6))
        return grid, policy, system, scen

    def test_matches_enumeration_oracle(self):
        grid, policy, system, scen = self._setup()
        instance = PlanningInstance(grid, policy, system, scen, "D")
        prob, hints, idx = build_planning_qp(instance)
        ref_obj, _ = enumerate_miqp(prob)
        res = plan(instance)
        assert res.objective == pytest.approx(ref_obj, rel=1e-5, abs=1e-7)

    def test_precharges_by_withdrawing(self):
        grid, policy, system, scen = self._setup()
        res = plan(PlanningInstance(grid, policy, system, scen, "D"))
        trace = res.traces[0]
        # engagement honors the 20 % floor at the peak
        assert np.all(res.engagement.values_kw[4:] >= 20.0 - 1e-6)
        # pre-peak withdrawals feed the battery
        assert np.sum(trace.charge_kw[:4]) > 1e-3
        assert np.min(trace.production_kw[:4]) < -1e-3
        assert np.sum(trace.discharge_kw[4:]) > 1e-3
        # SoC trajectory feasible and terminal value honored (validate ran in
        # plan); spot-check the endpoints anyway
        assert trace.soc_kwh[-1] == pytest.approx(system.soc_end_kwh, abs=1e-6)

    def test_infeasible_floor_is_diagnosed(self):
        grid = toy_grid(6, peak=(4, 5))
        policy = toy_policy(grid, prod_min_frac_peak=0.50, pv_capacity=100.0)
        system = toy_system(pv_capacity=100.0, capacity_kwh=12.0)
        # discharge power 12 kW < 50 kW floor with zero PV: period impossible
        with pytest.raises(PlanningError) as err:
            plan(PlanningInstance(grid, policy, system,
                                  ScenarioSet.single(np.zeros(6)), "D"))
        assert err.value.period == 4


class TestPlanProperties:
    def _noisy_instance(self, deadband_frac=0.05, n_scen=3, seed=5):
        grid = toy_grid(8)
        policy = toy_policy(grid, deadband_frac=deadband_frac)
        system = toy_system(capacity_kwh=20.0)
        rng = np.random.default_rng(seed)
        base = np.array([0.0, 15.0, 40.0, 70.0, 75.0, 50.0, 25.0, 5.0])
        values = np.clip(base[None, :] + rng.normal(0, 8.0, (n_scen, 8)), 0, 100.0)
        scen = ScenarioSet(values, np.full(n_scen, 1.0 / n_scen))
        return PlanningInstance(grid, policy, system, scen, "S")

    def test_objective_not_increased_by_wider_deadband(self):
        # holds in the shallow-shortfall regime (no hard floors force deep
        # under-delivery here)
        res_a = plan(self._noisy_instance(deadband_frac=0.05))
        res_b = plan(self._noisy_instance(deadband_frac=0.10))
        assert res_b.objective <= res_a.objective + 1e-9

    def test_duplicated_scenario_with_split_weight_is_neutral(self):
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = toy_system()
        s1 = np.array([0.0, 10.0, 40.0, 60.0, 30.0, 0.0])
        s2 = np.array([0.0, 25.0, 55.0, 45.0, 20.0, 0.0])
        base = ScenarioSet(np.stack([s1, s2]), np.array([0.5, 0.5]))
        split = ScenarioSet(np.stack([s1, s1, s2]),
                            np.array([0.25, 0.25, 0.5]))
        res_a = plan(PlanningInstance(grid, policy, system, base, "S"))
        res_b = plan(PlanningInstance(grid, policy, system, split, "S"))
        assert res_b.objective == pytest.approx(res_a.objective, abs=1e-6)

    def test_every_trace_and_engagement_verified(self):
        res = plan(self._noisy_instance())
        assert check_engagement(res.engagement, self._noisy_instance().policy).ok
        sys = toy_system(capacity_kwh=20.0)
        for trace in res.traces:
            trace.validate(toy_grid(8), sys)
            assert np.max(np.minimum(trace.charge_kw, trace.discharge_kw)) <= 1e-6 * 20.0

    def test_every_returned_trace_is_validated(self, monkeypatch):
        # plan validates each of its S traces and oracle_control its one, so
        # neither returns a trace that DispatchTrace.validate has not passed
        validated = []
        validate = DispatchTrace.validate

        def recorded(trace, grid, system):
            validate(trace, grid, system)
            validated.append(trace)

        monkeypatch.setattr(DispatchTrace, "validate", recorded)

        def same(returned):
            return list(map(id, validated)) == list(map(id, returned))

        toy = plan(self._noisy_instance())
        assert len(toy.traces) == 3 and same(toy.traces)
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        daily = TimeGrid.daily()
        policy = toy_policy(daily, pv_capacity=466.4)
        system = toy_system(466.4, 233.2)
        validated.clear()
        day = plan(PlanningInstance(daily, policy, system, scen, "S"))
        assert len(day.traces) == 20 and same(day.traces)
        validated.clear()
        ctl = oracle_control(day.engagement, scen.values_kw[0], policy, system, daily)
        assert same([ctl.trace])

    def test_status_reported(self):
        res = plan(self._noisy_instance())
        assert res.status in (SolveStatus.OPTIMAL, SolveStatus.NODE_LIMIT_INCUMBENT)


class TestSizingCaseDay:
    def test_dual_residual_converges_at_a_large_battery_ratio(self):
        # D-mode forecast of day 149 of synthetic season 1 of the benchmark
        # generator (bench/season.py), 466.4 kW PV, battery ratio 1.75,
        # 200/400 EUR/MWh. Without the full-step correction of the Newton
        # direction the dual residual stalls near 3e-8 while the primal
        # residual and the gap are ~1e-15, and plan raised SolverError
        # ("interior point did not converge").
        with np.load(DATA / "d_season1_day149.npz") as data:
            forecast = data["forecast_kw"]
        grid = TimeGrid.daily()
        policy = toy_policy(grid, price_offpeak=200.0, price_peak=400.0,
                            pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=1.75 * 466.4)
        res = plan_deterministic(forecast, grid, policy, system, mode="D")
        assert res.status is SolveStatus.OPTIMAL
        assert res.solution.residuals.dual <= 1e-9

    @pytest.mark.parametrize("season, day, ratio, price", [
        pytest.param(7, 143, 2.0, 400.0, id="season7_day143"),
        pytest.param(1, 126, 1.25, 350.0, id="season1_day126")])
    def test_perfect_foresight_plan_and_control_solve_without_pivoting(
            self, season, day, ratio, price):
        # With a static regularization of 1e-11, season 7, day 143 raised
        # SolverError when inaccurate solves were redone with a pivoted
        # refactorization (the dual residual stalled at 3.8e-9), and
        # season 1, day 126 raises it without that retry. What keeps day 143
        # solving now is the IPM's centering floor: without it the mean gap
        # falls to 7e-17 by iteration 19, the Newton direction misses
        # stationarity by more than the dual residual, and the plan raises
        # SolverError with one-column SuperLU panels (dual 1.3e-9, and
        # 2.9e-9 with the ordering reused as well). Both QPs now factor as
        # band matrices; on SuperLU see
        # test_stored_days_solve_without_pivoting_on_superlu.
        res, ctl = _perfect_foresight_day(season, day, ratio, price)
        assert res.status is ctl.status is SolveStatus.OPTIMAL
        assert res.solution.refactors == ctl.solution.refactors == 0

    def test_centering_floor_keeps_the_total_gap_within_tolerance(self):
        # on day 143 the floor binds: the last iterations hold the total gap
        # s.z near a tenth of the tolerance, and it must end below it. (Day
        # 126 stops on the mean gap with a total of 6e-9 in plan and 1.5e-8
        # in control, with or without the floor.)
        res, ctl = _perfect_foresight_day(7, 143, 2.0, 400.0)
        assert res.solution.residuals.comp_gap <= optim._TOL
        assert ctl.solution.residuals.comp_gap <= optim._TOL

    def test_formerly_stalled_control_solves_without_pivoting(self):
        # D plan and oracle control of day 77 of synthetic season 5, ratio
        # 1.25, 400/800 EUR/MWh. When the duals were first started on the
        # cost scale, the control's unpivoted direction blew up late in the
        # solve although no pivot was zero, both step lengths collapsed below
        # 1e-12, and without a pivoted retry of that iteration control raised
        # SolverError. Both QPs now solve without a refactorization (control
        # in 16 iterations on SuperLU); the retry itself is covered by the
        # monkeypatched test_optim.py tests
        # test_stalled_step_is_redone_with_pivoting and
        # test_stalled_band_step_is_redone_with_pivoting. Both QPs now factor
        # as band matrices; on SuperLU see
        # test_stored_days_solve_without_pivoting_on_superlu.
        with np.load(DATA / "d_season5_day77.npz") as data:
            forecast, realized = data["forecast_kw"], data["power_kw"]
        grid = TimeGrid.daily()
        policy = toy_policy(grid, 400.0, 800.0, 466.4)
        system = toy_system(466.4, 1.25 * 466.4)
        res = plan_deterministic(forecast, grid, policy, system, mode="D")
        ctl = oracle_control(res.engagement, realized, policy, system, grid)
        assert res.status is ctl.status is SolveStatus.OPTIMAL
        assert res.solution.refactors == ctl.solution.refactors == 0


    def test_stored_days_solve_without_pivoting_on_superlu(self, superlu_only):
        # the three tests above, with every KKT matrix factored without
        # pivoting as a wide pattern (S >= 3) is: elimination rounds, then
        # SuperLU's symmetric LU of what they leave
        for args in ((7, 143, 2.0, 400.0), (1, 126, 1.25, 350.0)):
            self.test_perfect_foresight_plan_and_control_solve_without_pivoting(*args)
        self.test_centering_floor_keeps_the_total_gap_within_tolerance()
        self.test_formerly_stalled_control_solves_without_pivoting()
        assert optim._RECENT and all(an.band is None for an in optim._RECENT)


class TestPriceHomogeneity:
    @pytest.mark.parametrize("name, key, mode, ratio", [
        pytest.param("d_season1_day149", "forecast_kw", "D", 1.5,
                     id="d_season1_day149"),
        pytest.param("dstar_season1_day126", "power_kw", "Dstar", 1.25,
                     id="dstar_season1_day126"),
        pytest.param("dstar_season7_day143", "power_kw", "Dstar", 2.0,
                     id="dstar_season7_day143")])
    def test_plan_scales_with_the_price(self, name, key, mode, ratio):
        # Every cost term of a plan is proportional to the selling price, so
        # the plan at price p is p times one fixed problem. Each stored day
        # is planned at the battery ratio the benchmark's sizing sweep gives
        # it, at the sweep's 8 prices. Started with duals on the cost scale,
        # the IPM takes nearly the same iterates up to that factor: the
        # static regularization and the "1 +" terms of the stopping tests
        # and of the centering floor still depend on the price.
        with np.load(DATA / f"{name}.npz") as data:
            profile = data[key]
        grid = TimeGrid.daily()
        system = toy_system(466.4, ratio * 466.4)
        prices = np.arange(50.0, 401.0, 50.0)
        plans = [plan_deterministic(profile, grid, toy_policy(grid, p, 2.0 * p, 466.4),
                                    system, mode=mode) for p in prices]
        assert len({res.solution.iterations for res in plans}) == 1
        engagement = np.array([res.engagement.values_kw for res in plans])
        assert np.max(np.ptp(engagement, axis=0)) < 0.05
        per_price = [res.objective / p for res, p in zip(plans, prices)]
        assert per_price == pytest.approx([per_price[0]] * len(prices), rel=1e-10)


class TestSharedPatternAnalysis:
    @pytest.fixture(scope="class")
    def family(self):
        """QPs of stored days: the S=20 plan of season 4, day 132 (ratio 0.5),
        and the D plan of season 5, day 77 at ratio 1.25 with its control at
        400/800 EUR/MWh and the same plan at 100/200 EUR/MWh."""
        grid = TimeGrid.daily()
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        with np.load(DATA / "d_season5_day77.npz") as data:
            forecast, realized = data["forecast_kw"], data["power_kw"]
        s20, _, _ = build_planning_qp(PlanningInstance(
            grid, toy_policy(grid, pv_capacity=466.4), toy_system(466.4, 233.2), scen, "S"))
        system = toy_system(466.4, 1.25 * 466.4)
        qps = {"s20_plan": s20}
        for name, price in (("d_plan", 400.0), ("d_plan_scaled", 100.0)):
            instance = PlanningInstance(grid, toy_policy(grid, price, 2.0 * price, 466.4),
                                        system, ScenarioSet.single(forecast), "D")
            qps[name] = build_planning_qp(instance)[0]
        policy = toy_policy(grid, 400.0, 800.0, 466.4)
        engagement = plan_deterministic(forecast, grid, policy, system, mode="D").engagement
        qps["control"] = build_control_qp(engagement, realized, policy, system, grid)[0]
        return qps

    @pytest.mark.parametrize("target, first, other", [
        ("s20_plan", "s20_plan", "d_plan"),
        ("d_plan", "d_plan", "control"),
        ("control", "control", "d_plan"),
        ("d_plan_scaled", "d_plan", "control")])
    def test_shared_analysis_leaves_the_solve_bitwise_unchanged(
            self, monkeypatch, family, target, first, other):
        # a day's plan QPs share one pattern at every ratio and price, and so
        # do its control QPs; solving first, then a QP of another pattern,
        # then target on the analysis that first left must give exactly
        # the solve of target with no analysis held. The S=20 plan factors
        # on SuperLU, the D plans and the control as band matrices.
        monkeypatch.setattr(optim, "_RECENT", [])
        cold = optim.solve_qp(family[target])
        optim._RECENT.clear()
        optim.solve_qp(family[first])
        shared = optim._RECENT[-1]
        optim.solve_qp(family[other])
        warm = optim.solve_qp(family[target])
        assert optim._RECENT[-1] is shared
        assert (shared.band is None) == (target == "s20_plan")
        assert cold.status is warm.status is SolveStatus.OPTIMAL
        assert np.array_equal(warm.x, cold.x)
        assert (warm.objective, warm.iterations, warm.refactors) == \
            (cold.objective, cold.iterations, cold.refactors)


class TestBatteryFloor:
    def test_closed_form_floor_separates_infeasible_from_feasible_plans(self):
        # the peak floor of 0.15 Pc for the 2 peak hours, from a 10-90 % SoC
        # window at 95 %: r_min = 0.3 / 0.76 of Pc. Season 1, day 126 has no
        # PV from 19 to 21 h, so its D* plan needs the whole floor from the
        # battery: infeasible just below r_min, feasible just above it.
        grid = TimeGrid.daily()
        policy = toy_policy(grid, 100.0, 200.0, 466.4)
        r_min = battery_floor_scale(grid, policy, toy_system(466.4, 466.4))
        assert r_min == pytest.approx(0.3 / 0.76, rel=1e-12)
        assert battery_floor_scale(grid, policy, toy_system(466.4, 0.5 * 466.4)) == \
            pytest.approx(r_min / 0.5, rel=1e-12)
        with np.load(DATA / "dstar_season1_day126.npz") as data:
            realized = data["power_kw"]
        assert not realized[grid.peak_mask].any()
        with pytest.raises(PlanningError, match="infeasible"):
            plan_deterministic(realized, grid, policy,
                               toy_system(466.4, 0.999 * r_min * 466.4), mode="Dstar")
        res = plan_deterministic(realized, grid, policy,
                                 toy_system(466.4, 1.001 * r_min * 466.4), mode="Dstar")
        assert res.status is SolveStatus.OPTIMAL


def _day77_plan_node_control():
    """D plan of day 77 of synthetic season 5 (ratio 0.5, 100/200 EUR/MWh),
    a node of it with 10 charges fixed at 0, and the oracle control of the
    plan on the day's realized PV."""
    with np.load(DATA / "d_season5_day77.npz") as data:
        forecast, realized = data["forecast_kw"], data["power_kw"]
    grid = TimeGrid.daily()
    policy = toy_policy(grid, 100.0, 200.0, 466.4)
    system = toy_system(466.4, 0.5 * 466.4)
    problem, _, _ = build_planning_qp(PlanningInstance(
        grid, policy, system, ScenarioSet.single(np.clip(forecast, 0.0, None)), "D"))
    assert np.sum(np.clip(forecast, 0.0, None) == 0.0) > 0
    ub = problem.ub.copy()
    ub[problem.comp_pairs[:40:4, 0]] = 0.0
    node = replace(problem, ub=ub)
    res = plan(PlanningInstance(grid, policy, system, ScenarioSet.single(forecast), "D"))
    control, _, _ = build_control_qp(res.engagement, realized, policy, system, grid)
    return problem, node, control


def _perfect_foresight_day(season, day, ratio, price):
    """D* plan and oracle control of a stored day.

    Realized PV of a day of a synthetic season of the benchmark generator
    (bench/season.py), 466.4 kW PV, peak price twice the off-peak price.
    """
    with np.load(DATA / f"dstar_season{season}_day{day}.npz") as data:
        realized = data["power_kw"]
    grid = TimeGrid.daily()
    policy = toy_policy(grid, price, 2.0 * price, 466.4)
    system = toy_system(466.4, ratio * 466.4)
    res = plan_deterministic(realized, grid, policy, system, mode="Dstar")
    return res, oracle_control(res.engagement, realized, policy, system, grid)


class TestPaperScaleDay:
    def test_bound_only_dispatch_is_eliminated_before_factoring(self, monkeypatch):
        # pv_used, charge, discharge and soc appear in no inequality row but
        # their bounds, so the IPM eliminates them in closed form; a fixed
        # pv_used (no PV) goes with its unit equality row, as its power
        # balance row keeps the production column, and the deadband slack
        # underdev is eliminated from its one deadband row. The terminal SoC
        # is fixed too, but its SoC row keeps no other variable, so it stays
        # with its unit row. The KKT matrix is then T engagement columns, ST
        # production columns, 2ST equality rows and S terminal SoC columns
        # and unit rows, whatever the number of PV-free periods. Its
        # elimination rounds take the production columns, the power balance
        # rows, the terminal SoCs with their unit rows and the first SoC row
        # of each scenario, and then every other SoC row of each chain twice
        # (48 and 24 of the 95 left), so the matrix handed to SuperLU is the
        # T engagement columns and 23 SoC rows per scenario: 556 at S=20.
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        grid = TimeGrid.daily()
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        problem, _, _ = build_planning_qp(PlanningInstance(grid, policy, system, scen, "S"))
        t_n, s_n = grid.n_periods, scen.n_scenarios
        dims = []

        class FirstFactor(Exception):
            pass

        def record(kkt, *args):
            dims.append(kkt.shape[0])
            raise FirstFactor

        # its ordering comes from a factorization of its own
        assert optim._analyze(problem).dim == t_n + 3 * s_n * t_n + 2 * s_n
        monkeypatch.setattr(optim, "_splu_symmetric", record)
        with pytest.raises(FirstFactor):
            optim.solve_qp(problem)
        assert dims == [t_n + 23 * s_n] == [556]

    def test_factored_dimension_of_a_d_plan_its_nodes_and_control(self, monkeypatch):
        # a D plan factors T engagement and T production columns, 2T
        # equality rows and the terminal SoC with its unit row; a node adds
        # each charge it fixes, with its unit row, as that charge's SoC row
        # keeps no other factored variable; control has no engagement
        # columns. Fixed pv_used (no PV) never adds to the dimension. All
        # three are band matrices under the reverse Cuthill-McKee ordering.
        problem, node, control = _day77_plan_node_control()
        assert [optim._analyze(prob).band for prob in (problem, node, control)] == [4, 5, 3]
        t_n = TimeGrid.daily().n_periods
        dims = []

        class FirstFactor(Exception):
            pass

        def record(kkt, *args):
            # CSC (dim, dim), or band storage (3 bw + 1, dim)
            dims.append(kkt.shape[1])
            raise FirstFactor

        monkeypatch.setattr(optim, "_splu_symmetric", record)
        monkeypatch.setattr(optim, "_BandLu", record)
        for prob in (problem, node, control):
            with pytest.raises(FirstFactor):
                optim.solve_qp(prob)
        assert dims == [4 * t_n + 2, 4 * t_n + 2 + 2 * 10, 3 * t_n + 2]

    def test_band_and_superlu_give_the_same_newton_directions(self, monkeypatch):
        # the predictor and corrector directions of the first 8 iterations of
        # each band solve, recomputed on SuperLU from the same weights and
        # right-hand sides. (In the last iterations, where w spans some 30
        # orders of magnitude, the two factorizations differ by up to 7e-10,
        # as the conditioning of those matrices allows.)
        seen = []
        assembler = optim._KktAssembler

        class Recorded(assembler):
            def __call__(self, w):
                self.w = w
                return super().__call__(w)

            def condense(self, r1, r2):
                seen.append((self.w, r1, r2))
                return super().condense(r1, r2)

        def direction(analysis, prob, w, r1, r2):
            a_all, _, _, _, _, g_t = analysis.standard_form(prob)
            hdiag = 2.0 * prob.q
            reg = optim._REG * max(1.0, float(np.max(hdiag)))
            assemble = assembler(analysis, a_all, g_t, hdiag + reg, reg)
            kkt = assemble(w)
            lu = (optim._splu_symmetric(kkt) if analysis.band is None
                  else optim._BandLu(kkt, analysis.band))
            return np.concatenate(assemble.expand(lu.solve(assemble.condense(r1, r2)), r1))

        monkeypatch.setattr(optim, "_KktAssembler", Recorded)
        for prob in _day77_plan_node_control():
            seen.clear()
            assert optim.solve_qp(prob).status is SolveStatus.OPTIMAL
            band = optim._Analysis(optim._pattern_key(prob))
            with monkeypatch.context() as mp:
                mp.setattr(optim, "_BAND_MAX", -1)
                wide = optim._Analysis(optim._pattern_key(prob))
            assert band.band is not None and wide.band is None
            assert len(seen) >= 20
            for w, r1, r2 in seen[:16]:
                got = direction(band, prob, w, r1, r2)
                ref = direction(wide, prob, w, r1, r2)
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_frozen_variables_come_back_at_their_fixed_value(self):
        # D plan of day 77 of synthetic season 5, ratio 1.25, 400/800 EUR/MWh.
        # Of its 56 fixed variables the 55 pv_used without PV are frozen: they
        # start at their bound and no Newton direction reaches them. The
        # terminal SoC keeps its unit row. Pivoted out with their unit rows,
        # 55 of the 56 came back off their bound by up to 3.3e-14.
        with np.load(DATA / "d_season5_day77.npz") as data:
            forecast = data["forecast_kw"]
        grid = TimeGrid.daily()
        policy = toy_policy(grid, 400.0, 800.0, 466.4)
        system = toy_system(466.4, 1.25 * 466.4)
        problem, _, _ = build_planning_qp(PlanningInstance(
            grid, policy, system, ScenarioSet.single(np.clip(forecast, 0.0, 466.4)), "D"))
        idx = dispatch_index(grid.n_periods, 1, grid.n_periods)
        frozen = optim._analyze(problem).frozen
        fixed = np.flatnonzero(problem.lb == problem.ub)
        assert np.array_equal(np.setdiff1d(fixed, frozen), [idx.soc[0, -1]])
        assert frozen.size == 55 and np.isin(frozen, idx.pv_used).all()
        sol = optim.solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert np.array_equal(sol.x[frozen], problem.ub[frozen])

    def test_s20_standard_form_has_a_unit_row_per_terminal_soc(self):
        # the S=20 plan of season 4, day 132 has 1,296 fixed variables: 1,276
        # pv_used without PV, frozen, and the 20 terminal SoCs. G holds the
        # 2TS power balance and SoC rows and the terminal SoCs' unit rows:
        # 3,860 rows, against 5,136 with a unit row per fixed variable.
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        grid = TimeGrid.daily()
        problem, _, _ = build_planning_qp(PlanningInstance(
            grid, toy_policy(grid, pv_capacity=466.4), toy_system(466.4, 233.2), scen, "S"))
        t_n, s_n = grid.n_periods, scen.n_scenarios
        idx = dispatch_index(t_n, s_n, t_n)
        analysis = optim._analyze(problem)
        assert analysis.band is None        # reverse Cuthill-McKee leaves a band of 80
        assert analysis.frozen.size == 1276 and np.isin(analysis.frozen, idx.pv_used).all()
        assert np.array_equal(analysis.unit, idx.soc[:, -1])
        assert analysis.g[2] == (2 * t_n * s_n + s_n, problem.n_var) == (3860, problem.n_var)

    @pytest.fixture(scope="class")
    def solved_day(self):
        """Plan of day 132 of synthetic season 4 with every QP solve recorded.

        20 PV scenarios (T=96) of the benchmark generator (bench/season.py),
        466.4 kW PV, ratio 0.5.
        """
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        grid = TimeGrid.daily()
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        solves = []
        solve_qp = optim.solve_qp

        def recording_solve_qp(problem, **kwargs):
            solves.append(solve_qp(problem, **kwargs))
            return solves[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "solve_qp", recording_solve_qp)
            res = plan(PlanningInstance(grid, policy, system, scen, "S"))
        return res, solves

    def test_every_solve_factors_without_pivoting(self, solved_day):
        # the symmetric, unpivoted factorization of the quasi-definite KKT
        # matrix holds at S=20; a pivoted refactorization here would bring
        # back its superlinear fill
        res, solves = solved_day
        assert len(solves) == res.solution.bnb.nodes
        assert [sol.refactors for sol in solves] == [0] * len(solves)


class TestScreenedBenchmarkOps:
    """The benchmark ops that bench/screened.json still skips.

    The 7 S=20 days raised "incumbent below the relaxation bound" and the 9
    D and D* cases at ratio 1.75 raised "interior point did not converge"
    when they were screened. Their inputs come from the benchmark generator
    (bench/season.py) through bench/workloads.py: S=20 scenario values and
    weights (those of season 4, day 132 are s20_season4_day132.npz), and
    the forecast and realized PV of each day, in screened_ops.npz.
    """

    @staticmethod
    def close(a, b):
        # the benchmark's relative tolerance, 1e-6 * (1 + |value|)
        return abs(a - b) <= 1e-6 * (1.0 + abs(b))

    @pytest.mark.parametrize("season, day, ratio, price, mode", [
        (1, 127, 0.5, 100.0, "S"), (1, 85, 0.5, 100.0, "S"),
        (3, 123, 0.5, 100.0, "S"), (3, 124, 0.5, 100.0, "S"),
        (4, 107, 0.5, 100.0, "S"), (4, 85, 0.5, 100.0, "S"),
        (4, 132, 0.5, 100.0, "S"),
        (1, 149, 1.75, 200.0, "D"), (1, 128, 1.75, 400.0, "D"),
        (1, 135, 1.75, 400.0, "D"), (2, 135, 1.75, 200.0, "D"),
        (2, 114, 1.75, 400.0, "D"), (3, 149, 1.75, 200.0, "D"),
        (3, 121, 1.75, 150.0, "D"), (3, 65, 1.75, 300.0, "D"),
        (3, 79, 1.75, 400.0, "Dstar")])
    def test_plan_and_control_pass_the_benchmark_checks(self, season, day, ratio,
                                                         price, mode):
        # the output checks of the day_s20 and sweep_det workloads: a valid
        # engagement, a plan objective equal to minus the expected net
        # remuneration of its traces, and a control objective equal to minus
        # the day's net revenue
        key = f"season{season}_day{day}"
        with np.load(DATA / "screened_ops.npz") as data:
            inputs = {k[len(key) + 1:]: data[k] for k in data.files
                      if k.startswith(f"{key}_")}
        if key == "season4_day132":
            with np.load(DATA / "s20_season4_day132.npz") as data:
                inputs.update(data)
        grid = TimeGrid.daily()
        policy = toy_policy(grid, price, 2.0 * price, 466.4)
        system = toy_system(466.4, ratio * 466.4)
        if mode == "S":
            scen = ScenarioSet(inputs["values_kw"], inputs["weights"])
            res = plan(PlanningInstance(grid, policy, system, scen, "S"))
            weights = scen.weights
        else:
            profile = inputs["forecast_kw" if mode == "D" else "power_kw"]
            res = plan_deterministic(profile, grid, policy, system, mode=mode)
            weights = (1.0,)
        ctl = oracle_control(res.engagement, inputs["power_kw"], policy, system, grid)
        assert check_engagement(res.engagement, policy).ok
        net = sum(w * float(np.sum(net_remuneration_series(
            res.engagement.values_kw, trace.production_kw, policy, grid)))
            for w, trace in zip(weights, res.traces))
        assert self.close(res.objective, -net)
        assert self.close(ctl.objective, -ctl.economics.net_revenue_eur)
