"""Oracle controller: optimal dispatch of a fixed engagement."""

import numpy as np
import pytest

from capfirm.controller import (
    ControlInfeasibleError,
    build_control_qp,
    day_economics,
    oracle_control,
)
from capfirm.domain import EngagementPlan, net_remuneration_series, penalty_series
from capfirm.planner import PlanningInstance, build_planning_qp, plan_deterministic
from capfirm.scenarios import ScenarioSet

from toys import no_bess_system, toy_grid, toy_policy, toy_system


class TestOracleControl:
    def test_matches_planner_on_same_data(self):
        # planning with perfect foresight then controlling on the same PV is
        # the same optimization, so the objectives coincide
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=20.0)
        pv = np.array([0.0, 10.0, 35.0, 70.0, 80.0, 45.0, 15.0, 0.0])
        planned = plan_deterministic(pv, grid, policy, system, mode="Dstar")
        controlled = oracle_control(planned.engagement, pv, policy, system, grid)
        assert controlled.objective == pytest.approx(planned.objective, abs=1e-6)

    def test_shares_the_planning_layout(self):
        # a one-scenario plan is the control problem behind T engagement
        # columns: same cost, equality rows, dispatch bounds and pairs
        t_n = 8
        grid = toy_grid(t_n, peak=(6, 7))
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=20.0)
        pv = np.array([0.0, 10.0, 35.0, 70.0, 80.0, 45.0, 15.0, 0.0])
        eng = EngagementPlan(np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 30.0]))
        p_prob, _, p_idx = build_planning_qp(PlanningInstance(
            grid, policy, system, ScenarioSet.single(pv), "Dstar"))
        c_prob, _, c_idx = build_control_qp(eng, pv, policy, system, grid)
        assert np.array_equal(p_prob.q[t_n:], c_prob.q)
        assert np.array_equal(p_prob.c[t_n:], c_prob.c)
        assert np.array_equal(p_prob.a_eq[:, t_n:].toarray(), c_prob.a_eq.toarray())
        assert p_prob.a_eq[:, :t_n].nnz == 0
        assert np.array_equal(p_prob.b_eq, c_prob.b_eq)
        assert [(i - t_n, j - t_n) for i, j in p_prob.comp_pairs] == list(c_prob.comp_pairs)
        for name in ("underdev", "pv_used", "charge", "discharge", "soc"):
            p_cols = getattr(p_idx, name)[0]
            c_cols = getattr(c_idx, name)[0]
            assert np.array_equal(p_cols - t_n, c_cols)
            assert np.array_equal(p_prob.lb[p_cols], c_prob.lb[c_cols])
            assert np.array_equal(p_prob.ub[p_cols], c_prob.ub[c_cols])

    def test_zero_engagement_zero_pv_is_idle(self):
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = no_bess_system()
        res = oracle_control(EngagementPlan(np.zeros(6)), np.zeros(6),
                             policy, system, grid)
        assert np.allclose(res.trace.production_kw, 0.0, atol=1e-7)
        assert res.economics.penalty_eur == pytest.approx(0.0, abs=1e-9)
        assert res.economics.gross_revenue_eur == pytest.approx(0.0, abs=1e-9)

    def test_no_bess_trace_is_closed_form(self):
        # without storage the optimal production is min(pv, engagement + band)
        # within the production bounds, and the penalty follows directly
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = no_bess_system()
        forecast = np.array([0.0, 20.0, 50.0, 80.0, 90.0, 60.0, 30.0, 5.0])
        realized = 0.8 * forecast
        planned = plan_deterministic(forecast, grid, policy, system, mode="D")
        res = oracle_control(planned.engagement, realized, policy, system, grid)
        eng = planned.engagement.values_kw
        expected_p = np.minimum(realized, np.minimum(eng + policy.deadband_kw,
                                                     policy.prod_max_kw))
        assert np.allclose(res.trace.production_kw, expected_p, atol=1e-5)
        expected_pen = float(np.sum(penalty_series(eng, expected_p, policy, grid)))
        assert res.economics.penalty_eur == pytest.approx(expected_pen, abs=1e-6)

    def test_penalty_consistent_with_domain(self):
        # the tender's penalty, written out per period: a shortfall d beyond
        # the deadband below the engagement costs (dt*price/capacity)*d*(d + 4*band)
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=15.0)
        pv = np.array([0.0, 10.0, 30.0, 55.0, 60.0, 45.0, 20.0, 0.0])
        planned = plan_deterministic(pv * 1.2, grid, policy, system, mode="D")
        res = oracle_control(planned.engagement, pv, policy, system, grid)
        band = policy.deadband_kw
        expected = 0.0
        for eng, prod, price in zip(planned.engagement.values_kw, res.trace.production_kw,
                                    policy.price_eur_mwh):
            d = max(eng - band - prod, 0.0)
            expected += grid.delta_t_hours * (price / 1000.0) / policy.pv_capacity_kw \
                * d * (d + 4.0 * band)
        assert res.economics.penalty_eur > 0.0
        assert res.economics.penalty_eur == pytest.approx(expected, rel=1e-12)

    def test_objective_beats_greedy_baseline(self):
        # idle battery, export pv up to the deadband cap: always feasible on
        # a floor-free day, so the controller must do at least as well
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=25.0)
        pv = np.array([0.0, 25.0, 55.0, 85.0, 75.0, 40.0, 10.0, 0.0])
        planned = plan_deterministic(pv * 0.9, grid, policy, system, mode="D")
        res = oracle_control(planned.engagement, pv, policy, system, grid)
        eng = planned.engagement.values_kw
        greedy_p = np.minimum(pv, np.minimum(eng + policy.deadband_kw,
                                             policy.prod_max_kw))
        greedy_obj = -float(np.sum(net_remuneration_series(eng, greedy_p,
                                                           policy, grid)))
        assert res.objective <= greedy_obj + 1e-7

    def test_infeasible_floor_reports_period(self):
        grid = toy_grid(6, peak=(3, 4))
        policy = toy_policy(grid, prod_min_frac_peak=0.5)
        system = toy_system(capacity_kwh=5.0)   # discharge power 5 kW << 50 kW
        eng = EngagementPlan(np.array([0.0, 5.0, 12.5, 20.0, 20.0, 12.5]))
        with pytest.raises(ControlInfeasibleError) as err:
            oracle_control(eng, np.zeros(6), policy, system, grid)
        assert err.value.period == 3

    def test_day_economics_fields(self):
        grid = toy_grid(4)
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=10.0)
        pv = np.array([0.0, 40.0, 60.0, 20.0])
        planned = plan_deterministic(pv, grid, policy, system, mode="Dstar")
        res = oracle_control(planned.engagement, pv, policy, system, grid)
        eco = res.economics
        dt = grid.delta_t_hours
        assert eco.export_kwh == pytest.approx(
            float(np.sum(dt * np.maximum(res.trace.production_kw, 0.0))), abs=1e-9)
        assert eco.discharged_kwh == pytest.approx(
            float(dt * np.sum(res.trace.discharge_kw)), abs=1e-9)
        assert eco.net_revenue_eur == pytest.approx(
            eco.gross_revenue_eur - eco.penalty_eur, abs=1e-12)
        # objective of the solver is the negative of the net remuneration when
        # the underdeviation variable is tight (positive prices)
        assert res.objective == pytest.approx(-eco.net_revenue_eur, abs=1e-6)

    def test_economics_grading_helper(self):
        grid = toy_grid(4)
        policy = toy_policy(grid)
        eng = EngagementPlan(np.array([0.0, 30.0, 30.0, 0.0]))
        from capfirm.domain import DispatchTrace
        prod = np.array([0.0, 20.0, -5.0, 0.0])
        trace = DispatchTrace(prod, np.maximum(prod, 0.0), np.zeros(4),
                              np.zeros(4), np.full(4, 5.0),
                              np.maximum(eng.values_kw - policy.deadband_kw - prod, 0.0))
        eco = day_economics(trace, eng, policy, grid)
        assert eco.withdrawal_kwh == pytest.approx(0.25 * 5.0)
        assert eco.export_revenue_eur == pytest.approx(0.25 * 20.0 * 0.1)
        assert eco.gross_revenue_eur == pytest.approx(0.25 * 15.0 * 0.1)
