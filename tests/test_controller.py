"""Oracle controller: optimal dispatch of a fixed engagement."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from capfirm.controller import (
    ControlInfeasibleError,
    DayEconomics,
    build_control_qp,
    day_economics,
    oracle_control,
)
from capfirm.domain import (
    EngagementPlan,
    ShapeError,
    TimeGrid,
    net_remuneration_series,
    penalty_series,
)
from capfirm.planner import PlanningInstance, build_planning_qp, plan_deterministic
from capfirm.scenarios import ScenarioSet

from toys import no_bess_system, toy_grid, toy_policy, toy_system

DATA = Path(__file__).resolve().parent / "data"


def _pair_contract_problem(name):
    """An S=3, T=8 planning problem or a T=8 control problem."""
    grid = toy_grid(8, peak=(6, 7))
    policy = toy_policy(grid)
    system = toy_system(capacity_kwh=20.0)
    pv = np.array([0.0, 10.0, 35.0, 70.0, 80.0, 45.0, 15.0, 0.0])
    if name == "planning":
        scen = ScenarioSet(np.stack([pv, 0.5 * pv, 1.2 * pv]), np.array([0.5, 0.25, 0.25]))
        return build_planning_qp(PlanningInstance(grid, policy, system, scen, "S"))
    eng = EngagementPlan(np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 30.0]))
    return build_control_qp(eng, pv, policy, system, grid)


class TestPairContract:
    @pytest.mark.parametrize("name", ["planning", "control"])
    def test_pairs_and_pv_used_share_a_power_balance_row(self, name):
        # the repair curtails hints.pv_used[k] to pay for clearing pair k, so
        # all three columns must meet in one power-balance row, with signs
        # that keep it balanced, and the pair's SoC row must keep its flux
        # under the reduction dc = k * dd that the efficiencies give
        prob, hints, _ = _pair_contract_problem(name)
        a_eq = prob.a_eq.toarray()
        k_eta = hints.eta_charge * hints.eta_discharge
        assert prob.comp_pairs.shape == (hints.pv_used.size, 2)
        balance_rows = set()
        for (cha, dis), pv in zip(prob.comp_pairs, hints.pv_used):
            pv_rows = np.flatnonzero(a_eq[:, pv])
            assert pv_rows.size == 1
            row = pv_rows[0]
            assert a_eq[row, cha] != 0.0 and a_eq[row, dis] != 0.0
            assert a_eq[row, pv] == a_eq[row, dis] == -a_eq[row, cha]
            shared = np.flatnonzero((a_eq[:, cha] != 0.0) & (a_eq[:, dis] != 0.0))
            assert shared.size == 2 and row in shared
            soc_row = shared[shared != row][0]
            assert a_eq[soc_row, pv] == 0.0
            flux = a_eq[soc_row, cha] + k_eta * a_eq[soc_row, dis]
            assert abs(flux) <= 1e-12 * abs(a_eq[soc_row, cha])
            balance_rows.add(row)
        assert len(balance_rows) == prob.comp_pairs.shape[0]


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
        assert np.array_equal(p_prob.comp_pairs - t_n, c_prob.comp_pairs)
        for name in ("underdev", "pv_used", "charge", "discharge", "soc"):
            p_cols = getattr(p_idx, name)[0]
            c_cols = getattr(c_idx, name)[0]
            assert np.array_equal(p_cols - t_n, c_cols)
            assert np.array_equal(p_prob.lb[p_cols], c_prob.lb[c_cols])
            assert np.array_equal(p_prob.ub[p_cols], c_prob.ub[c_cols])

    def test_nan_realized_pv_is_rejected_before_solving(self):
        # one NaN period reaches the pv_used bound; it used to run the whole
        # interior point and its certificate into a SolverError (dual nan)
        grid = toy_grid(8)
        policy = toy_policy(grid)
        system = toy_system(capacity_kwh=20.0)
        pv = np.array([0.0, 10.0, 35.0, 70.0, 80.0, 45.0, 15.0, 0.0])
        planned = plan_deterministic(pv, grid, policy, system, mode="Dstar")
        pv[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            oracle_control(planned.engagement, pv, policy, system, grid)

    def test_zero_engagement_zero_pv_is_idle(self):
        grid = toy_grid(6)
        policy = toy_policy(grid)
        system = no_bess_system()
        res = oracle_control(EngagementPlan(np.zeros(6)), np.zeros(6),
                             policy, system, grid)
        assert np.allclose(res.trace.production_kw, 0.0, atol=1e-7)
        assert res.economics.penalty_eur == pytest.approx(0.0, abs=1e-9)
        assert res.economics.gross_revenue_eur == pytest.approx(0.0, abs=1e-9)

    def test_policy_length_must_match_grid(self):
        # a 48-period policy on a 96-period grid failed inside dispatch_problem
        # with numpy's broadcast error
        grid = toy_grid(96)
        with pytest.raises(ShapeError, match="policy"):
            oracle_control(EngagementPlan(np.zeros(96)), np.zeros(96),
                           toy_policy(toy_grid(48)), toy_system(), grid)

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

    def test_day_economics_scales_with_the_price(self):
        # every money figure of a day is proportional to the selling price,
        # so grading one controlled trace at the sweep's 8 prices scales its
        # economics at 100 EUR/MWh, and leaves the energy figures as they
        # are. D plan and oracle control of day 77 of synthetic season 5,
        # ratio 1.25, at 100/200 EUR/MWh.
        with np.load(DATA / "d_season5_day77.npz") as data:
            forecast, realized = data["forecast_kw"], data["power_kw"]
        grid = TimeGrid.daily()
        policy = toy_policy(grid, 100.0, 200.0, 466.4)
        system = toy_system(466.4, 1.25 * 466.4)
        planned = plan_deterministic(forecast, grid, policy, system, mode="D")
        trace = oracle_control(planned.engagement, realized, policy, system, grid).trace
        at_100 = day_economics(trace, planned.engagement, policy, grid)
        for price in np.arange(50.0, 401.0, 50.0):
            got = day_economics(trace, planned.engagement,
                                toy_policy(grid, price, 2.0 * price, 466.4), grid)
            for name in (f.name for f in fields(DayEconomics)):
                v, want = getattr(got, name), getattr(at_100, name)
                if name.endswith("_eur"):
                    scaled = price / 100.0 * want
                    assert abs(v - scaled) <= 1e-12 * (1.0 + abs(scaled)), (price, name)
                else:
                    assert v == want, (price, name)

    def test_economics_grading_helper(self):
        grid = toy_grid(4)
        policy = toy_policy(grid)
        eng = EngagementPlan(np.array([0.0, 30.0, 30.0, 0.0]))
        from capfirm.domain import DispatchTrace
        prod = np.array([0.0, 20.0, -5.0, 0.0])
        trace = DispatchTrace(prod, np.maximum(prod, 0.0), np.zeros(4),
                              np.zeros(4), np.full(4, 5.0))
        eco = day_economics(trace, eng, policy, grid)
        assert eco.withdrawal_kwh == pytest.approx(0.25 * 5.0)
        assert eco.export_revenue_eur == pytest.approx(0.25 * 20.0 * 0.1)
        assert eco.gross_revenue_eur == pytest.approx(0.25 * 15.0 * 0.1)
