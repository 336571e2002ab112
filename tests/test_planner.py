"""Day-ahead planning: problem build, optimality, plan invariants."""

from pathlib import Path

import numpy as np
import pytest

from capfirm import optim
from capfirm.controller import oracle_control
from capfirm.domain import TimeGrid, check_engagement
from capfirm.planner import (
    PlanningError,
    PlanningInstance,
    build_planning_qp,
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
        assert check_engagement(res.engagement, res.solution and
                                self._noisy_instance().policy).ok
        sys = toy_system(capacity_kwh=20.0)
        for trace in res.traces:
            trace.validate(toy_grid(8), sys)
            assert np.max(np.minimum(trace.charge_kw, trace.discharge_kw)) <= 1e-6 * 20.0

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
        # 2.9e-9 with the ordering reused as well).
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

    def test_stalled_control_step_is_redone_with_pivoting(self):
        # D plan and oracle control of day 77 of synthetic season 5, ratio
        # 1.25, 400/800 EUR/MWh. With the duals started on the cost scale,
        # the control's unpivoted direction blows up late in the solve
        # although no pivot is zero, and both step lengths collapse below
        # 1e-12; without a pivoted retry of that iteration control raised
        # SolverError.
        with np.load(DATA / "d_season5_day77.npz") as data:
            forecast, realized = data["forecast_kw"], data["power_kw"]
        grid = TimeGrid.daily()
        policy = toy_policy(grid, 400.0, 800.0, 466.4)
        system = toy_system(466.4, 1.25 * 466.4)
        res = plan_deterministic(forecast, grid, policy, system, mode="D")
        ctl = oracle_control(res.engagement, realized, policy, system, grid)
        assert res.status is SolveStatus.OPTIMAL
        assert ctl.status is SolveStatus.OPTIMAL


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
        # their bounds, so the IPM eliminates them in closed form, except the
        # fixed ones (terminal SoC, PV-free periods), which stay as variables
        # and as equality rows. The matrix handed to the first factorization
        # is then T engagement columns, 2ST production and underdev columns,
        # 2ST equality rows and twice the fixed variables.
        with np.load(DATA / "s20_season4_day132.npz") as data:
            scen = ScenarioSet(data["values_kw"], data["weights"])
        grid = TimeGrid.daily()
        policy = toy_policy(grid, pv_capacity=466.4)
        system = toy_system(pv_capacity=466.4, capacity_kwh=233.2)
        problem, _, _ = build_planning_qp(PlanningInstance(grid, policy, system, scen, "S"))
        lb, ub = problem.lb, problem.ub
        n_fixed = int(np.sum(np.isfinite(lb) & np.isfinite(ub)
                             & (ub - lb <= 1e-14 * np.maximum(1.0, np.abs(ub)))))
        t_n, s_n = grid.n_periods, scen.n_scenarios
        dims = []

        class FirstFactor(Exception):
            pass

        def record(kkt, *args):
            dims.append(kkt.shape[0])
            raise FirstFactor

        monkeypatch.setattr(optim, "_splu_symmetric", record)
        with pytest.raises(FirstFactor):
            optim.solve_qp(problem)
        assert dims == [t_n + 4 * s_n * t_n + 2 * n_fixed]

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

        def recording_solve_qp(problem):
            solves.append(solve_qp(problem))
            return solves[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "solve_qp", recording_solve_qp)
            res = plan(PlanningInstance(grid, policy, system, scen, "S"))
        return res, solves

    def test_incumbent_within_the_root_duality_gap_is_accepted(self, solved_day):
        # The root stops with a total duality gap s.z above 1e-6 * (1 + |obj|),
        # and the first incumbent lies below the root objective by more than
        # that tolerance but within the gap; checking weak duality against
        # the root objective alone raised SolverError here.
        res, _ = solved_day
        assert res.status is SolveStatus.OPTIMAL
        assert res.solution.bnb.gap == 0.0
        assert len(res.traces) == 20

    def test_every_solve_factors_without_pivoting(self, solved_day):
        # the symmetric, unpivoted factorization of the quasi-definite KKT
        # matrix holds at S=20; a pivoted refactorization here would bring
        # back its superlinear fill
        res, solves = solved_day
        assert len(solves) == res.solution.bnb.nodes
        assert [sol.refactors for sol in solves] == [0] * len(solves)
