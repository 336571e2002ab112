"""PVUSA evaluation, sign-constrained fitting, clear-sky helper."""

import gc
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from capfirm import pvusa
from capfirm.pvusa import (
    REFERENCE_PARAMS,
    PvusaParams,
    WeatherSeries,
    WeatherShapeError,
    clear_sky_irradiance,
    fit_pvusa,
    pvusa_eval,
    steady_state_fit,
)

from oracles import fit_pvusa_per_window, sign_constrained_ls_enumeration

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import season as gen  # noqa: E402
import workloads  # noqa: E402


def _solar_weather(days=3, step_minutes=15, latitude=50.6, start="2019-08-01"):
    n = days * 24 * 60 // step_minutes
    ts = (np.datetime64(start) + np.arange(n) * np.timedelta64(step_minutes, "m"))
    irr = clear_sky_irradiance(latitude, ts)
    temp = 15.0 + 8.0 * np.sin(2.0 * np.pi * (np.arange(n) * step_minutes / 60.0 - 9.0) / 24.0)
    return WeatherSeries(ts, irr, temp)


def _seasonal_weather(days=46, step_minutes=15, latitude=50.6, start="2019-08-03",
                      seed=1000):
    """Autumn-like span: temperature drifts down across days, varying daily."""
    n = days * 24 * 60 // step_minutes
    ts = (np.datetime64(start) + np.arange(n) * np.timedelta64(step_minutes, "m"))
    irr = clear_sky_irradiance(latitude, ts)
    hours = np.arange(n) * step_minutes / 60.0
    frac = hours / 24.0 / days
    rng = np.random.default_rng(seed)
    offsets = np.repeat(rng.uniform(-4.0, 4.0, days), 24 * 60 // step_minutes)
    temp = (18.0 - 16.0 * frac + offsets
            + 8.0 * np.sin(2.0 * np.pi * ((hours % 24) - 9.0) / 24.0))
    return WeatherSeries(ts, irr, temp)


def _oracle_arrays(ref):
    """The oracle's list trajectory as ``fit_pvusa``'s arrays: the window
    ends, the estimates, and ``fitted`` True unless a window holds the same
    object as the window before."""
    ends = np.array([t for t, _ in ref], dtype="datetime64[ns]")
    fitted = np.array([k == 0 or p is not ref[k - 1][1] for k, (_, p) in enumerate(ref)],
                      dtype=bool)
    return ends, [p for _, p in ref], fitted


def _repeats_previous_row(traj):
    """Every row with ``fitted`` False is bitwise the row before it."""
    repeat = np.flatnonzero(~traj.fitted)
    return traj.coefficients[repeat].tobytes() == traj.coefficients[repeat - 1].tobytes()


def _daylight_weather(n, step_minutes=15, start="2019-08-01T00:00"):
    """Irradiance above the daytime threshold at every sample, and irradiance
    and temperature on incommensurate periods, so that no window is skipped
    and none is rank deficient."""
    hours = np.arange(n) * step_minutes / 60.0
    ts = np.datetime64(start) + np.arange(n) * np.timedelta64(step_minutes, "m")
    irr = 500.0 + 300.0 * np.sin(2.0 * np.pi * hours / 7.0)
    temp = 15.0 + 5.0 * np.cos(2.0 * np.pi * hours / 5.0)
    return WeatherSeries(ts, irr, temp)


class TestEval:
    def test_zero_irradiance_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = PvusaParams(rng.uniform(0.1, 1.0), -rng.uniform(1e-6, 1e-4),
                                 -rng.uniform(1e-4, 1e-2))
            assert pvusa_eval(params, 0.0, rng.uniform(-20, 40)) == 0.0

    def test_reference_values(self):
        # direct evaluation of the parametric form at the steady-state
        # coefficients: 0.573*800 - 7.68e-5*800^2 - 1.86e-3*800*20
        assert pvusa_eval(REFERENCE_PARAMS, 800.0, 20.0) == pytest.approx(379.488, abs=1e-9)
        assert pvusa_eval(REFERENCE_PARAMS, 1000.0, 25.0) == pytest.approx(449.7, abs=1e-9)

    def test_clipping(self):
        assert pvusa_eval(REFERENCE_PARAMS, 1000.0, 25.0, capacity_kw=400.0) == 400.0
        params = PvusaParams(0.01, -1e-5, -5e-2)
        assert pvusa_eval(params, 900.0, 40.0) < 0.0
        assert pvusa_eval(params, 900.0, 40.0, capacity_kw=400.0) == 0.0

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ValueError):
            pvusa_eval(REFERENCE_PARAMS, -1.0, 20.0)

    @pytest.mark.parametrize("irradiance, temperature", [
        (np.nan, 20.0), (np.inf, 20.0), (500.0, np.nan), (500.0, -np.inf),
        ([500.0, np.nan], [20.0, 25.0]), ([500.0, 800.0], [20.0, np.inf]),
    ])
    def test_non_finite_weather_rejected(self, irradiance, temperature):
        # NaN passes the irradiance >= 0 check and the clip to a capacity alike
        with pytest.raises(ValueError, match="finite"):
            pvusa_eval(REFERENCE_PARAMS, irradiance, temperature, capacity_kw=400.0)

    @pytest.mark.parametrize("capacity", [-1.0, 0.0, np.nan, np.inf])
    def test_invalid_capacity_rejected(self, capacity):
        # a clip to [0, -1] reads -1 kW at every point, and one to NaN reads NaN
        with pytest.raises(ValueError, match="capacity_kw"):
            pvusa_eval(REFERENCE_PARAMS, [500.0, 800.0], [20.0, 25.0], capacity_kw=capacity)

    def test_concave_in_irradiance(self):
        irr = np.linspace(0.0, 1100.0, 200)
        p = pvusa_eval(REFERENCE_PARAMS, irr, 15.0)
        second = np.diff(p, 2)
        assert np.all(second <= 1e-9)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            PvusaParams(0.5, 1e-5, -1e-3)
        with pytest.raises(ValueError):
            PvusaParams(-0.5, -1e-5, -1e-3)


class TestFit:
    def test_exact_recovery_noiseless(self):
        weather = _solar_weather()
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        traj = fit_pvusa(power, weather)
        assert len(traj) > 10
        final = PvusaParams(*traj.coefficients[-1])
        rel = np.abs(final.as_array() / REFERENCE_PARAMS.as_array() - 1.0)
        assert np.max(rel) < 1e-6

    def test_recovery_with_noise(self):
        weather = _seasonal_weather()
        capacity = 466.4
        clean = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        for seed in (1, 4, 5):
            rng = np.random.default_rng(seed)
            power = clean + 0.01 * capacity * rng.standard_normal(clean.shape)
            fitted = steady_state_fit(power, weather)
            rel = np.abs(fitted.as_array() / REFERENCE_PARAMS.as_array() - 1.0)
            assert np.max(rel) < 0.05, f"seed {seed}"

    def test_consistency_as_noise_vanishes(self):
        weather = _seasonal_weather()
        rng = np.random.default_rng(11)
        capacity = 466.4
        clean = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        noise = rng.standard_normal(clean.shape)
        errs = {}
        for sigma in (0.01, 0.001, 0.0):
            fitted = steady_state_fit(clean + sigma * capacity * noise, weather)
            errs[sigma] = np.max(np.abs(fitted.as_array()
                                        / REFERENCE_PARAMS.as_array() - 1.0))
        assert errs[0.0] < 1e-8
        assert errs[0.001] < 0.01
        assert errs[0.01] < 0.05
        assert errs[0.0] <= errs[0.001] <= errs[0.01] * 1.01

    def test_all_night_window_skipped(self):
        # constant darkness: every window is skipped, no estimates at all
        n = 8 * 4
        ts = np.datetime64("2019-08-01T00:00") + np.arange(n) * np.timedelta64(15, "m")
        weather = WeatherSeries(ts, np.zeros(n), np.full(n, 12.0))
        traj = fit_pvusa(np.zeros(n), weather, window_hours=4.0)
        assert len(traj) == 0

    def test_night_gap_keeps_previous(self):
        weather = _solar_weather(days=2)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        traj = fit_pvusa(power, weather, window_hours=6.0)
        # overnight windows are skipped entirely, so consecutive estimates
        # may be more than one step apart but the trajectory stays ordered
        assert (np.diff(traj.ends) > np.timedelta64(0)).all()

    def test_fit_residual_zero_for_linear_generator(self):
        # the model is linear in (a, b, c): an exact generator leaves
        # numerically zero residuals through a fit
        weather = _solar_weather(days=2)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        traj = fit_pvusa(power, weather)
        fitted = PvusaParams(*traj.coefficients[-1])
        day = weather.irradiance_wm2 > 5.0
        resid = power[day] - pvusa_eval(fitted, weather.irradiance_wm2[day],
                                        weather.temperature_c[day])
        assert np.max(np.abs(resid)) < 1e-6

    def test_active_sign_constraint(self):
        # power generated with b > 0: the fit pins b at its floor, and the
        # KKT conditions hold there: zero gradient of the SSE in a and c,
        # and an SSE that would still fall if b could rise
        weather = _seasonal_weather()
        irr, tmp = weather.irradiance_wm2, weather.temperature_c
        power = 0.573 * irr + 1e-5 * irr ** 2 - 1.86e-3 * irr * tmp
        fitted = steady_state_fit(power, weather)
        assert fitted.b == -1e-12
        day = irr > 5.0
        design = np.column_stack([irr[day], irr[day] ** 2, irr[day] * tmp[day]])
        grad = 2.0 * design.T @ (design @ fitted.as_array() - power[day])
        scale = np.linalg.norm(design, axis=0) * np.linalg.norm(power[day])
        assert np.all(np.abs(grad[[0, 2]]) <= 1e-12 * scale[[0, 2]])
        assert grad[1] < 0.0

    def test_rank_deficient_window_keeps_previous(self):
        # six hours of varying weather, then eight hours of constant
        # irradiance and temperature: the three regressors of a window
        # inside the constant stretch are proportional, so fit_pvusa repeats
        # the previous estimate instead of fitting
        n = 14 * 4
        ts = np.datetime64("2019-08-01T06:00") + np.arange(n) * np.timedelta64(15, "m")
        irr = np.full(n, 500.0)
        tmp = np.full(n, 20.0)
        irr[:24] = np.linspace(100.0, 900.0, 24)
        tmp[:24] = np.linspace(12.0, 24.0, 24)
        weather = WeatherSeries(ts, irr, tmp)
        power = pvusa_eval(REFERENCE_PARAMS, irr, tmp)
        power[24:] = 200.0      # inconsistent with the first stretch
        traj = fit_pvusa(power, weather, window_hours=3.0)
        constant = traj.ends - np.timedelta64(3, "h") >= ts[24]
        assert constant.sum() >= 3 and not constant[0]
        first = int(np.argmax(constant))
        assert not traj.fitted[first:].any() and _repeats_previous_row(traj)

    def test_debug_lines_name_every_window_without_its_own_fit(self, caplog):
        # 3-hour windows over night, constant weather (rank deficient with
        # nothing to repeat yet), varying weather, then constant weather
        # again (rank deficient, repeating the row before)
        hours = np.arange(20 * 4) / 4.0
        ts = np.datetime64("2019-08-01T00:00") + np.arange(hours.size) * np.timedelta64(15, "m")
        irr = np.where(hours < 4.0, 0.0, 500.0)
        tmp = np.full(hours.size, 20.0)
        vary = (hours >= 10.0) & (hours < 16.0)
        irr[vary] = np.linspace(100.0, 900.0, vary.sum())
        tmp[vary] = np.linspace(12.0, 24.0, vary.sum())
        weather = WeatherSeries(ts, irr, tmp)
        power = pvusa_eval(REFERENCE_PARAMS, irr, tmp)
        with caplog.at_level(logging.DEBUG, logger="capfirm.pvusa"):
            traj = fit_pvusa(power, weather, window_hours=3.0)
        ref, windows = fit_pvusa_per_window(power, weather, 3.0, 1.0)
        skipped = sum(m.endswith("daytime samples") for m in caplog.messages)
        no_fallback = sum(m.endswith("no fallback") for m in caplog.messages)
        keeping = sum(m.endswith("keeping previous") for m in caplog.messages)
        assert min(skipped, no_fallback, keeping) >= 1
        assert skipped + no_fallback + keeping == len(caplog.messages)
        assert skipped + no_fallback + len(traj) == windows
        assert keeping == (~traj.fitted).sum() == (~_oracle_arrays(ref)[2]).sum()
        # one line per window, in time order
        assert caplog.messages == sorted(caplog.messages)

    @pytest.mark.parametrize("window_hours, step_hours",
                             [(12.0, 1.0), (6.0, 0.25), (3.0, 1.0)])
    def test_batched_fit_matches_per_window_enumeration(self, window_hours, step_hours):
        # noisy measurements, with a 16-hour stretch in which irradiance
        # steps by 1 W/m^2 and temperature by 4e-10 degC: the designs of the
        # windows inside it have a smallest-to-largest singular value ratio
        # of ~2e-14, rank deficient under the 1e-12 test though not exactly
        base = _seasonal_weather()
        irr = base.irradiance_wm2.copy()
        tmp = base.temperature_c.copy()
        stretch = slice(20 * 96 + 16, 20 * 96 + 80)
        irr[stretch] = 500.0 + np.arange(64) % 3
        tmp[stretch] = 20.0 + 4e-10 * (np.arange(64) % 2)
        weather = WeatherSeries(base.timestamps, irr, tmp)
        rng = np.random.default_rng(3)
        power = (pvusa_eval(REFERENCE_PARAMS, irr, tmp)
                 + 0.01 * 466.4 * rng.standard_normal(irr.shape))

        traj = fit_pvusa(power, weather, window_hours, step_hours)
        ref, _ = fit_pvusa_per_window(power, weather, window_hours, step_hours)
        ends, params, fitted = _oracle_arrays(ref)
        assert np.array_equal(traj.ends, ends)
        assert np.array_equal(traj.fitted, fitted)
        assert not traj.fitted.all() and _repeats_previous_row(traj)
        window = np.timedelta64(int(window_hours * 3600), "s")
        day = irr > 5.0
        for end, row, expected in zip(traj.ends, traj.coefficients, params):
            sel = day & (weather.timestamps >= end - window) & (weather.timestamps <= end)
            gap = (pvusa_eval(PvusaParams(*row), irr[sel], tmp[sel])
                   - pvusa_eval(expected, irr[sel], tmp[sel]))
            assert np.max(np.abs(gap)) <= 1e-8

        again = fit_pvusa(power, weather, window_hours, step_hours)
        assert np.array_equal(again.ends, traj.ends)
        assert np.array_equal(again.fitted, traj.fitted)
        assert again.coefficients.tobytes() == traj.coefficients.tobytes()

    def test_window_ending_at_last_timestamp_counts(self):
        # 8 hours of samples: 3-hour windows end at 3, 4, ..., 8 hours, and
        # the last one ends exactly at the last timestamp
        weather = _daylight_weather(4 * 8 + 1)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        traj = fit_pvusa(power, weather, window_hours=3.0, step_hours=1.0)
        assert len(traj) == 6
        assert traj.ends[-1] == weather.timestamps[-1]
        shorter = fit_pvusa(power[:-1], _daylight_weather(4 * 8),
                            window_hours=3.0, step_hours=1.0)
        assert len(shorter) == 5
        # a window ending less than one second after the last timestamp
        # counts as well
        for early_ms, windows in ((500, 6), (1500, 5)):
            ts = weather.timestamps.copy()
            ts[-1] -= np.timedelta64(early_ms, "ms")
            moved = WeatherSeries(ts, weather.irradiance_wm2, weather.temperature_c)
            traj = fit_pvusa(power, moved, window_hours=3.0, step_hours=1.0)
            assert len(traj) == windows

    def test_series_shorter_than_a_window_gives_no_estimate(self):
        weather = _daylight_weather(4 * 3)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        assert len(fit_pvusa(power, weather, window_hours=3.0, step_hours=1.0)) == 0
        empty = WeatherSeries(np.array([], dtype="datetime64[ns]"), [], [])
        assert len(fit_pvusa([], empty)) == 0

    @pytest.mark.parametrize("samples", [12, 13, 33, 34, 50, 97])
    @pytest.mark.parametrize("window_hours, step_hours",
                             [(3.0, 1.0), (3.0, 0.75), (2.5, 0.5)])
    def test_window_count_matches_while_loop(self, samples, window_hours, step_hours):
        weather = _daylight_weather(samples)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        traj = fit_pvusa(power, weather, window_hours, step_hours)
        ref, windows = fit_pvusa_per_window(power, weather, window_hours, step_hours)
        assert len(traj) == windows
        assert np.array_equal(traj.ends, _oracle_arrays(ref)[0])

    @pytest.mark.parametrize("window_hours, step_hours",
                             [(12.0, 1e-4), (12.0, 0.0), (12.0, -1.0),
                              (0.0, 1.0), (-3.0, 1.0)])
    def test_degenerate_window_or_step_rejected(self, window_hours, step_hours):
        # a step that rounds to 0 s or below never advances the window
        weather = _solar_weather(days=2)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        with pytest.raises(ValueError):
            fit_pvusa(power, weather, window_hours, step_hours)

    def test_window_with_invalid_signs_rejected(self, monkeypatch):
        # every row is checked as PvusaParams checks one estimate: a kernel
        # returning b > 0 for the last window fails the fit
        weather = _daylight_weather(4 * 8 + 1)
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2,
                           weather.temperature_c)
        kernel = pvusa._sign_constrained_ls

        def positive_b(stack):
            beta, full_rank = kernel(stack)
            beta[-1, 1] = 1e-5
            return beta, full_rank

        monkeypatch.setattr(pvusa, "_sign_constrained_ls", positive_b)
        with pytest.raises(ValueError, match="invalid PVUSA signs: a=.*, b=1e-05"):
            fit_pvusa(power, weather, window_hours=3.0, step_hours=1.0)


class TestKernel:
    """The batched kernel on designs built to reach each of its cases."""

    def test_every_closed_form_active_set_matches_enumeration(self):
        # generating coefficients of random signs, e^U(-2, 2) times the
        # reference ones: the optimum lands in each of the eight active
        # sets, and each closed form gives the answer of the lstsq
        # enumeration, with the same coefficients pinned
        rng = np.random.default_rng(2)
        n, rows = 400, 20
        irr = rng.uniform(100.0, 900.0, (n, rows))
        design = np.stack([irr, irr ** 2, irr * rng.uniform(0.0, 30.0, (n, rows))], axis=2)
        truth = (rng.choice([-1.0, 1.0], (n, 3)) * REFERENCE_PARAMS.as_array()
                 * np.exp(rng.uniform(-2.0, 2.0, (n, 3))))
        power = (design @ truth[..., None])[..., 0] + rng.normal(0.0, 5.0, (n, rows))
        beta, full_rank = pvusa._sign_constrained_ls(
            np.concatenate([design, power[..., None]], axis=2))
        assert full_rank.all()
        pinned = set()
        for k in range(n):
            expected = sign_constrained_ls_enumeration(design[k], power[k])
            pinned.add(tuple(expected == pvusa._BOUNDS))
            assert np.array_equal(beta[k] == pvusa._BOUNDS, expected == pvusa._BOUNDS)
            assert np.max(np.abs(design[k] @ (beta[k] - expected))) <= 1e-8
        assert pinned == {tuple(p) for p in pvusa._PINNED.tolist()}

    def test_rank_decision_matches_the_singular_value_rule(self):
        # designs U diag(sigma) V^T with condition numbers from 1e9 to 1e14,
        # the middle singular value between the others, scaled as
        # irradiance designs are; the R of each has those singular values.
        # Every window gets the decision of the 1e-12 test on the singular
        # values of its R, on both sides of 1e12
        rng = np.random.default_rng(7)
        kappa = np.logspace(9.0, 14.0, 401)
        rows = 12
        u = np.linalg.qr(rng.standard_normal((kappa.size, rows, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((kappa.size, 3, 3)))[0]
        sigma = np.column_stack([np.ones_like(kappa), kappa ** -rng.uniform(0.0, 1.0, kappa.size),
                                 1.0 / kappa]) * 1e4
        design = u * sigma[:, None, :] @ v.transpose(0, 2, 1)
        stack = np.concatenate([design, rng.standard_normal((kappa.size, rows, 1))], axis=2)

        beta, full_rank = pvusa._sign_constrained_ls(stack)
        sv = np.linalg.svd(np.linalg.qr(stack, mode="r")[:, :3, :3], compute_uv=False)
        expected = sv[:, -1] > 1e-12 * sv[:, 0]
        assert np.array_equal(full_rank, expected)
        assert 150 < expected.sum() < 250
        assert np.isfinite(beta[full_rank]).all() and np.isnan(beta[~full_rank]).all()

    def test_only_windows_the_bound_cannot_decide_reach_the_svd(self, monkeypatch):
        # well-conditioned windows are decided by the bound alone; the
        # nearly collinear stretch of the batched-fit test (singular value
        # ratio ~2e-14) still goes to the SVD and is found rank deficient
        rng = np.random.default_rng(8)
        good = rng.uniform(100.0, 900.0, (5, 20))
        irr = np.concatenate([good, np.full((1, 20), 500.0) + np.arange(20) % 3])
        tmp = np.concatenate([rng.uniform(5.0, 25.0, (5, 20)),
                              20.0 + 4e-10 * (np.arange(20) % 2)[None]])
        stack = np.stack([irr, irr ** 2, irr * tmp, 0.5 * irr], axis=2)
        svd = np.linalg.svd
        seen = []

        def recorded_svd(a, *args, **kwargs):
            seen.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        _, full_rank = pvusa._sign_constrained_ls(stack)
        assert seen == [1]
        assert full_rank.tolist() == [True] * 5 + [False]


class TestBenchmarkSeasonFit:
    """The rolling fit of the forecast_s100 workload, on its own input."""

    @pytest.mark.parametrize("seed", [1, 4])
    def test_workload_day_matches_per_window_enumeration(self, seed):
        season = gen.make_season(seed)
        workload = workloads.ForecastS100(season, seed)
        day = int(season.target_days[seed * 20])
        weather, power = workload._history(day)
        traj = fit_pvusa(power, weather, workloads.WINDOW_HOURS, workloads.STEP_HOURS)
        ref, _ = fit_pvusa_per_window(power, weather, workloads.WINDOW_HOURS,
                                      workloads.STEP_HOURS)
        assert len(traj) > 1000
        ends, params, fitted = _oracle_arrays(ref)
        assert np.array_equal(traj.ends, ends)
        assert np.array_equal(traj.fitted, fitted) and _repeats_previous_row(traj)
        window = np.timedelta64(int(workloads.WINDOW_HOURS * 3600), "s")
        irr, tmp, ts = weather.irradiance_wm2, weather.temperature_c, weather.timestamps
        day_mask = irr > 5.0
        gap = 0.0
        for end, row, expected in zip(traj.ends, traj.coefficients, params):
            sel = day_mask & (ts >= end - window) & (ts <= end)
            gap = max(gap, float(np.max(np.abs(
                pvusa_eval(PvusaParams(*row), irr[sel], tmp[sel])
                - pvusa_eval(expected, irr[sel], tmp[sel])))))
        assert gap <= 1e-8

    def test_rolling_fit_allocates_no_per_window_objects(self):
        # the trajectory is three arrays, not an object per window; a fit of
        # this history that built a PvusaParams and a tuple per window left
        # 2,675 new objects for the cyclic collector to scan
        season = gen.make_season(1)
        day = int(season.target_days[20])
        weather, power = workloads.ForecastS100(season, 1)._history(day)
        args = (power, weather, workloads.WINDOW_HOURS, workloads.STEP_HOURS)
        fit_pvusa(*args)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            traj = fit_pvusa(*args)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(traj) > 1000 and added <= 5
        assert traj.ends.dtype == np.dtype("datetime64[ns]") and traj.fitted.dtype == bool
        assert traj.coefficients.shape == (len(traj), 3)
        assert not any(a.flags.writeable for a in (traj.ends, traj.coefficients, traj.fitted))


class TestNonFiniteInput:
    """One non-finite sample at the sunniest time of a 10-day history."""

    @staticmethod
    def _columns():
        weather = _solar_weather(days=10)
        sunniest = int(np.argmax(weather.irradiance_wm2))
        power = pvusa_eval(REFERENCE_PARAMS, weather.irradiance_wm2, weather.temperature_c)
        columns = {"timestamps": weather.timestamps,
                   "irradiance_wm2": weather.irradiance_wm2.copy(),
                   "temperature_c": weather.temperature_c.copy()}
        return columns, power, sunniest

    @pytest.mark.parametrize("fit", [fit_pvusa, steady_state_fit])
    def test_non_finite_power_is_rejected(self, fit):
        # a NaN power made every candidate's residual NaN, so the pooled fit
        # and every window holding the sample fell back to the all-pinned
        # coefficients, a forecast of about 0 kW, without an error
        columns, power, sunniest = self._columns()
        power[sunniest] = np.nan
        with pytest.raises(WeatherShapeError, match="finite"):
            fit(power, WeatherSeries(**columns))

    def test_non_finite_irradiance_is_rejected(self):
        # NaN > 5 W/m^2 is False, so the sample was silently taken as night
        columns, _, sunniest = self._columns()
        columns["irradiance_wm2"][sunniest] = np.nan
        with pytest.raises(WeatherShapeError, match="finite"):
            WeatherSeries(**columns)

    def test_non_finite_temperature_is_rejected(self):
        # numpy raised LinAlgError ("SVD did not converge") from both fits,
        # which is no error type of the package
        columns, _, sunniest = self._columns()
        columns["temperature_c"][sunniest] = np.inf
        with pytest.raises(WeatherShapeError, match="finite"):
            WeatherSeries(**columns)


class TestTimestampOrder:
    """The fits find their windows by binary search on the timestamps."""

    @pytest.mark.parametrize("fault", ["reversed", "repeated", "nat", "single_nat"])
    def test_unordered_or_nat_timestamps_rejected(self, fault):
        # out of order, the search found other windows, without an error
        weather = _solar_weather(days=3)
        ts = weather.timestamps.copy()
        if fault == "reversed":
            ts[100:200] = ts[100:200][::-1]
        elif fault == "repeated":
            ts[101] = ts[100]
        elif fault == "nat":
            ts[150] = np.datetime64("NaT")
        else:
            ts = ts[:1].copy()
            ts[0] = np.datetime64("NaT")
        n = ts.size
        with pytest.raises(WeatherShapeError, match="strictly increasing"):
            WeatherSeries(ts, weather.irradiance_wm2[:n], weather.temperature_c[:n])


class TestClearSky:
    def test_midnight_zero(self):
        assert clear_sky_irradiance(50.6, np.datetime64("2019-08-01T00:00")) == 0.0

    def test_equinox_noon_equator(self):
        v = clear_sky_irradiance(0.0, np.datetime64("2019-03-21T12:00"))
        assert 900.0 <= v <= 1200.0

    def test_monotone_sunrise_to_noon(self):
        ts = np.datetime64("2019-06-21T04:00") + np.arange(33) * np.timedelta64(15, "m")
        v = clear_sky_irradiance(45.0, ts)
        assert np.all(np.diff(v) >= -1e-12)

    def test_nonnegative_everywhere(self):
        ts = np.datetime64("2019-01-01T00:00") + np.arange(96 * 30) * np.timedelta64(15, "m")
        assert np.all(clear_sky_irradiance(70.0, ts) >= 0.0)

    def test_latitude_validated(self):
        with pytest.raises(ValueError):
            clear_sky_irradiance(95.0, np.datetime64("2019-08-01T12:00"))
