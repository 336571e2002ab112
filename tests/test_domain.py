"""Tariff construction, engagement checking and remuneration rules."""

import numpy as np
import pytest

from capfirm.domain import (
    DispatchTrace,
    EngagementPlan,
    InvalidConfigError,
    ShapeError,
    SystemConfig,
    TimeGrid,
    build_cre_policy,
    check_engagement,
    net_remuneration_series,
    penalty_series,
)

PC = 466.4


@pytest.fixture
def grid():
    return TimeGrid.daily()


@pytest.fixture
def policy(grid):
    return build_cre_policy(grid, 100.0, 100.0, PC)


class TestTimeGrid:
    def test_daily_quarter_hours(self, grid):
        assert grid.n_periods == 96
        assert grid.delta_t_hours == 0.25
        assert grid.n_periods * grid.delta_t_hours == 24.0

    def test_peak_window_is_eight_quarters(self, grid):
        # half-open [19:00, 21:00): periods 76..83
        assert grid.peak_mask.sum() == 8
        assert grid.peak_mask[76] and grid.peak_mask[83]
        assert not grid.peak_mask[75] and not grid.peak_mask[84]

    def test_toy_grids_allowed(self):
        g = TimeGrid(4, 0.25, np.zeros(4, dtype=bool))
        assert g.n_periods == 4

    def test_invalid(self):
        with pytest.raises(InvalidConfigError):
            TimeGrid(0, 0.25, np.zeros(0, dtype=bool))
        with pytest.raises(ShapeError):
            TimeGrid(4, 0.25, np.zeros(3, dtype=bool))


class TestBuildCrePolicy:
    def test_uliege_capacity_values(self, grid):
        pol = build_cre_policy(grid, 50.0, 100.0, PC)
        assert pol.deadband_kw == pytest.approx(23.32)
        off = ~grid.peak_mask
        assert np.allclose(pol.ramp_limit_kw[off], 34.98)
        assert np.allclose(pol.ramp_limit_kw[grid.peak_mask], 69.96)
        assert np.allclose(pol.eng_max_kw, PC)
        assert np.allclose(pol.prod_max_kw, PC)
        assert np.allclose(pol.prod_min_kw[off], -0.05 * PC)
        assert np.allclose(pol.prod_min_kw[grid.peak_mask], 0.15 * PC)

    def test_engagement_floors_100kw(self, grid):
        pol = build_cre_policy(grid, 50.0, 100.0, 100.0)
        assert np.allclose(pol.eng_min_kw[~grid.peak_mask], -5.0)
        assert np.allclose(pol.eng_min_kw[grid.peak_mask], 20.0)

    def test_zero_prices_keep_bounds(self, grid):
        pol = build_cre_policy(grid, 0.0, 0.0, PC)
        assert np.all(pol.price_eur_mwh == 0.0)
        assert pol.deadband_kw == pytest.approx(23.32)

    def test_rejects_bad_capacity(self, grid):
        with pytest.raises(InvalidConfigError):
            build_cre_policy(grid, 50.0, 100.0, 0.0)
        with pytest.raises(InvalidConfigError):
            build_cre_policy(grid, 50.0, 100.0, -10.0)


class TestCheckEngagement:
    def test_constant_zero_ok_offpeak_floor(self, grid):
        # zero is within [-5% Pc, Pc] off-peak but below the 20 % peak floor,
        # so use a policy without a peak window here
        g = TimeGrid(8, 0.25, np.zeros(8, dtype=bool))
        pol = build_cre_policy(g, 100.0, 100.0, PC)
        assert check_engagement(EngagementPlan(np.zeros(8)), pol).ok

    def test_offpeak_step_of_40kw_violates(self, policy):
        values = np.zeros(96)
        values[10] = 40.0  # step 40 kW > 34.98 kW off-peak ramp
        values[76:84] = 0.2 * PC + np.arange(8) * 0.0  # keep peak floor satisfied
        # ramp into the peak floor legally
        values[72:76] = [0.2 * PC - 3 * 34.98, 0.2 * PC - 2 * 34.98,
                         0.2 * PC - 34.98, 0.2 * PC]
        values[84:] = np.maximum(0.2 * PC - np.arange(1, 13) * 34.98, 0.0)
        res = check_engagement(EngagementPlan(values), policy)
        assert not res.ok
        assert res.violation.kind == "ramp"
        assert res.violation.period == 10

    def test_first_period_ramp_exempt(self, grid):
        g = TimeGrid(4, 0.25, np.zeros(4, dtype=bool))
        pol = build_cre_policy(g, 100.0, 100.0, PC)
        # huge first value relative to a virtual predecessor is fine
        values = np.array([400.0, 400.0 - 30.0, 400.0 - 60.0, 400.0 - 60.0])
        assert check_engagement(EngagementPlan(values), pol).ok

    def test_bound_violations_reported(self, grid):
        g = TimeGrid(4, 0.25, np.zeros(4, dtype=bool))
        pol = build_cre_policy(g, 100.0, 100.0, 100.0)
        res = check_engagement(EngagementPlan([-20.0, 0.0, 0.0, 0.0]), pol)
        assert not res.ok and res.violation.kind == "lower_bound"
        res = check_engagement(EngagementPlan([150.0, 150.0, 150.0, 150.0]), pol)
        assert not res.ok and res.violation.kind == "upper_bound"
        assert res.violation.period == 0

    def test_length_mismatch(self, policy):
        with pytest.raises(ShapeError):
            check_engagement(EngagementPlan(np.zeros(10)), policy)


def flat(value):
    return np.full(96, value)


class TestPenalty:
    # the policy fixture charges a flat 100 EUR/MWh in every period

    def test_zero_inside_deadband(self, policy, grid):
        production = 300.0 - np.linspace(0.0, 0.999 * policy.deadband_kw, 96)
        assert np.all(penalty_series(flat(300.0), production, policy, grid) == 0.0)

    def test_zero_at_threshold(self, policy, grid):
        e = 300.0
        assert np.all(penalty_series(flat(e), flat(e - policy.deadband_kw),
                                     policy, grid) == 0.0)

    def test_hand_evaluated_ten_kw_shortfall(self, policy, grid):
        # delta = 10 kW beyond the deadband, pi = 100 EUR/MWh, dt = 0.25 h
        e = 300.0
        p = e - policy.deadband_kw - 10.0
        # independent scalar evaluation of the threshold-quadratic form
        oracle = (0.25 * (100.0 / 1000.0) / PC) * 10.0 * (10.0 + 4.0 * 23.32)
        val = penalty_series(flat(e), flat(p), policy, grid)
        assert val == pytest.approx(flat(oracle), abs=1e-15)
        assert val[0] == pytest.approx(0.055360205831903944, abs=1e-9)

    def test_continuity_and_monotonicity(self, policy, grid):
        e = 200.0
        edge = e - policy.deadband_kw
        eps = 1e-7
        assert np.all(penalty_series(flat(e), flat(edge - eps), policy, grid) < 1e-8)
        shortfalls = np.linspace(0.1, 50.0, 96)
        vals = penalty_series(flat(e), edge - shortfalls, policy, grid)
        assert np.all(np.diff(vals) > 0)

    def test_linear_in_price_and_dt(self, policy, grid):
        e, p = 300.0, 250.0
        base = penalty_series(flat(e), flat(p), policy, grid)
        doubled = build_cre_policy(grid, 200.0, 200.0, PC)
        assert penalty_series(flat(e), flat(p), doubled, grid) == pytest.approx(2.0 * base)
        g2 = TimeGrid(48, 0.5, np.zeros(48, dtype=bool))
        half_hourly = build_cre_policy(g2, 100.0, 100.0, PC)
        assert penalty_series(np.full(48, e), np.full(48, p), half_hourly, g2) == \
            pytest.approx(2.0 * base[:48])

    def test_zero_above_engagement(self, policy, grid):
        production = np.resize([300.0, 320.0, 460.0], 96)
        assert np.all(penalty_series(flat(300.0), production, policy, grid) == 0.0)


class TestNetRemuneration:
    # the policy fixture pays a flat 100 EUR/MWh in every period

    def test_zero_zero(self, policy, grid):
        zeros = np.zeros(96)
        assert np.all(net_remuneration_series(zeros, zeros, policy, grid) == 0.0)

    def test_pure_revenue(self, policy, grid):
        # inside the deadband: 0.25 h * 0.1 EUR/kWh * 400 kW = 10 EUR
        flat = np.full(96, 400.0)
        assert net_remuneration_series(flat, flat, policy, grid) == pytest.approx(
            np.full(96, 10.0))

    def test_signed_withdrawal(self, policy, grid):
        flat = np.full(96, -10.0)
        assert net_remuneration_series(flat, flat, policy, grid) == pytest.approx(
            np.full(96, -0.25))

    def test_zero_price_identically_zero(self, grid):
        pol = build_cre_policy(grid, 0.0, 0.0, PC)
        rng = np.random.default_rng(1)
        e = rng.uniform(-20, 400, 96)
        p = rng.uniform(-20, 400, 96)
        assert np.allclose(net_remuneration_series(e, p, pol, grid), 0.0)


class TestSystemConfig:
    def test_soc_ceiling_defaults_to_capacity(self):
        sys = SystemConfig(100.0, 200.0, 20.0, 200.0, 200.0, 0.95, 0.95, 20.0, 20.0)
        assert sys.soc_max_kwh == 200.0

    def test_operating_window(self):
        sys = SystemConfig(100.0, 200.0, 20.0, 200.0, 200.0, 0.95, 0.95,
                           20.0, 20.0, soc_max_kwh=180.0)
        assert sys.soc_max_kwh == 180.0
        with pytest.raises(InvalidConfigError):
            SystemConfig(100.0, 200.0, 20.0, 200.0, 200.0, 0.95, 0.95,
                         190.0, 20.0, soc_max_kwh=180.0)
        with pytest.raises(InvalidConfigError):
            SystemConfig(100.0, 200.0, 300.0, 200.0, 200.0, 0.95, 0.95, 20.0, 20.0)
        with pytest.raises(InvalidConfigError):
            SystemConfig(100.0, 200.0, 20.0, 200.0, 200.0, 1.2, 0.95, 20.0, 20.0)


class TestDispatchTrace:
    def _system(self):
        return SystemConfig(100.0, 100.0, 10.0, 100.0, 100.0, 0.95, 0.95, 10.0, 10.0,
                            soc_max_kwh=90.0)

    def test_valid_roundtrip(self):
        g = TimeGrid(4, 0.25, np.zeros(4, dtype=bool))
        sys = self._system()
        charge = np.array([40.0, 0.0, 0.0, 0.0])
        discharge = np.array([0.0, 0.0, 35.0, 0.0])
        flux = 0.25 * (0.95 * charge - discharge / 0.95)
        soc = 10.0 + np.cumsum(flux)
        # pick a final discharge that returns exactly to soc_end
        discharge[3] = (soc[2] - 10.0) / 0.25 * 0.95
        flux = 0.25 * (0.95 * charge - discharge / 0.95)
        soc = 10.0 + np.cumsum(flux)
        pv = np.array([50.0, 20.0, 0.0, 0.0])
        prod = pv + discharge - charge
        trace = DispatchTrace(prod, pv, charge, discharge, soc, np.zeros(4))
        trace.validate(g, sys)

    def test_balance_violation_detected(self):
        g = TimeGrid(2, 0.25, np.zeros(2, dtype=bool))
        sys = self._system()
        trace = DispatchTrace([10.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                              [10.0, 10.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="balance"):
            trace.validate(g, sys)
