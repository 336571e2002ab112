"""Copula estimation and scenario sampling."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from capfirm import scenarios
from capfirm.scenarios import (
    CopulaModel,
    EstimationError,
    ScenarioSet,
    fit_copula,
    sample_scenarios,
)
from oracles import (
    copula_fit_reference,
    inverse_marginals_reference,
    scenario_values_reference,
)

PC = 466.4


def _correlated_errors(days, t_n, rho, rng, scale=30.0):
    """History with AR(1)-style cross-lead-time correlation rho^|i-j|."""
    base = np.arange(t_n)
    r_true = rho ** np.abs(base[:, None] - base[None, :])
    low = np.linalg.cholesky(r_true)
    return (rng.standard_normal((days, t_n)) @ low.T) * scale, r_true


def _night_history(whole_kw, days=61, t_n=96):
    """Correlated daytime errors with zero (degenerate) night lead times."""
    errors, _ = _correlated_errors(days, t_n, 0.9, np.random.default_rng(14), scale=10.0)
    errors[:, :24] = 0.0
    errors[:, 80:] = 0.0
    return np.round(errors) if whole_kw else errors


def _model_fields(t_n=3, days=40):
    return dict(sorted_errors_kw=np.zeros((days, t_n)),
                degenerate=np.ones(t_n, dtype=bool),
                correlation=np.eye(t_n))


class TestCopulaModel:
    @pytest.mark.parametrize("field, value", [
        ("correlation", np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        ("correlation", np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        ("sorted_errors_kw", np.zeros((1, 3))),
        ("sorted_errors_kw", np.array([[0.0, 0.0, -np.inf]] + [[0.0, 0.0, 1.0]] * 39)),
        ("sorted_errors_kw", np.array([[0.0, 0.0, 1.0]] + [[0.0, 0.0, 0.0]] * 39)),
        ("degenerate", np.ones(2, dtype=bool)),
    ], ids=["nan_correlation", "singular_correlation", "one_history_row",
            "non_finite_errors", "unsorted_errors", "degenerate_flags_not_t"])
    def test_invalid_field_rejected(self, field, value):
        CopulaModel(**_model_fields())
        with pytest.raises(ValueError):
            CopulaModel(**{**_model_fields(), field: value})


class TestFitCopula:
    def test_independent_errors_have_small_offdiag(self):
        # |R| off-diagonal scales like 1/sqrt(days) for independent errors;
        # at 200 days the typical maximum over 15 entries sits near 0.10-0.14
        # (checked by Monte-Carlo over seeds), so 0.15 holds for typical draws
        rng = np.random.default_rng(0)
        errors = rng.standard_normal((200, 6)) * 25.0
        model = fit_copula(errors, PC)
        off = model.correlation - np.diag(np.diag(model.correlation))
        assert np.max(np.abs(off)) < 0.15

    def test_perfect_dependence(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(100) * 40.0
        errors = np.column_stack([z, z, rng.standard_normal(100) * 40.0])
        model = fit_copula(errors, PC)
        assert model.correlation[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_night_lead_times(self):
        rng = np.random.default_rng(2)
        errors = np.zeros((60, 6))
        errors[:, 2:4] = rng.standard_normal((60, 2)) * 20.0
        model = fit_copula(errors, PC)
        flags = model.degenerate.tolist()
        assert flags == [True, True, False, False, True, True]
        for k in (0, 1, 4, 5):
            row = model.correlation[k].copy()
            row[k] -= 1.0
            assert np.max(np.abs(row)) < 1e-12

    def test_history_requirements(self):
        rng = np.random.default_rng(3)
        with pytest.raises(EstimationError):
            fit_copula(rng.standard_normal((10, 4)), PC)
        bad = rng.standard_normal((40, 4))
        bad[3, 2] = np.nan
        with pytest.raises(EstimationError):
            fit_copula(bad, PC)

    @pytest.mark.parametrize("capacity", [0.0, -1.0, np.nan])
    def test_invalid_capacity_rejected(self, capacity):
        # at such a capacity no lead time reads as degenerate, so the all-zero
        # ones would give NaN correlations and fail the eigenvalue repair
        errors = np.random.default_rng(0).standard_normal((40, 8)) * 10.0
        errors[:, :2] = 0.0
        with pytest.raises(EstimationError, match="pv_capacity_kw"):
            fit_copula(errors, capacity)

    def test_repaired_matrix_positive_definite(self):
        # strongly dependent short history: raw normal-score correlation is
        # typically indefinite or barely PSD before the repair
        rng = np.random.default_rng(4)
        errors, _ = _correlated_errors(31, 24, 0.98, rng)
        model = fit_copula(errors, PC)
        vals = np.linalg.eigvalsh(model.correlation)
        assert vals.min() >= 1e-8 * 0.5
        recon = model.cholesky_factor @ model.cholesky_factor.T
        assert np.max(np.abs(recon - model.correlation)) < 1e-10

    @pytest.mark.parametrize("smallest, repaired", [(0.5e-8, True), (2e-8, False)])
    def test_positive_definiteness_test_at_its_floor(self, monkeypatch, smallest, repaired):
        # a 5-day, 8-lead-time correlation has four zero eigenvalues; the
        # diagonal shift and rescaling lift them to `smallest` and keep the
        # unit diagonal. Below the 1e-8 floor the matrix is repaired; above
        # it, the Cholesky test returns it without an eigendecomposition
        r0 = np.corrcoef(np.random.default_rng(16).standard_normal((5, 8)), rowvar=False)
        r0 = 0.5 * (r0 + r0.T)
        np.fill_diagonal(r0, 1.0)
        shift = smallest / (1.0 - smallest)
        r = (r0 + shift * np.eye(8)) / (1.0 + shift)
        assert np.array_equal(np.diag(r), np.ones(8))
        assert np.linalg.eigvalsh(r).min() == pytest.approx(smallest, rel=1e-4)
        eigh, calls = np.linalg.eigh, []

        def recorded_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        out = scenarios._repair_positive_definite(r)
        if repaired:
            assert calls and np.linalg.eigvalsh(out).min() >= 1e-8
            assert np.array_equal(np.diag(out), np.ones(8))
        else:
            assert calls == [] and out.tobytes() == r.tobytes()

    def test_average_ranks_match_rankdata(self):
        # whole-kW errors tie often; the ranks, and through them the fitted
        # correlation, must be bit-identical to scipy's average ranks
        rng = np.random.default_rng(5)
        errors = np.round(_correlated_errors(60, 96, 0.9, rng, scale=2.0)[0])
        assert np.array_equal(scenarios._average_ranks(errors),
                              stats.rankdata(errors, axis=0, method="average"))
        fitted = fit_copula(errors, PC)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "_average_ranks",
                       lambda e: stats.rankdata(e, axis=0, method="average"))
            reference = fit_copula(errors, PC)
        assert np.array_equal(fitted.correlation, reference.correlation)


    @pytest.mark.parametrize("whole_kw", [False, True], ids=["raw", "whole_kw"])
    def test_matches_the_per_lead_time_reference(self, whole_kw):
        errors = _night_history(whole_kw)
        model = fit_copula(errors, PC)
        sorted_errors, degenerate, corr, low = copula_fit_reference(errors, PC)
        assert degenerate.sum() == 40
        assert np.array_equal(model.sorted_errors_kw, sorted_errors)
        assert np.array_equal(model.degenerate, degenerate)
        assert np.array_equal(model.correlation, corr)
        assert np.array_equal(model.cholesky_factor, low)


class TestSampleScenarios:
    @pytest.mark.parametrize("n_scenarios", [20, 100])
    @pytest.mark.parametrize("whole_kw", [False, True], ids=["raw", "whole_kw"])
    def test_matches_the_per_lead_time_reference(self, whole_kw, n_scenarios):
        model = fit_copula(_night_history(whole_kw), PC)
        forecast = 0.9 * PC * np.clip(np.sin(np.linspace(-0.6, np.pi + 0.6, 96)), 0.0, None)
        out = sample_scenarios(model, forecast, n_scenarios, seed=21, pv_capacity_kw=PC)
        expected = scenario_values_reference(model, forecast, n_scenarios, 21, PC)
        assert np.array_equal(out.values_kw, expected)

    def test_inverse_marginals_at_plotting_positions_and_beyond_the_ends(self):
        # uniforms on every plotting position, one ulp either side of each,
        # between them and beyond both ends, through the sampler's own
        # array pass; the forecast is zero, so a value is its error clipped
        # at 0. Column 0 is degenerate and column 5 has ties. Interpolating
        # from -1 to the right end of (-1, 0.3] gives 0.30000000000000004,
        # not the order statistic 0.3: that interval is inside column 3 and
        # last in column 4
        rng = np.random.default_rng(15)
        errors = rng.standard_normal((31, 6)) * 10.0 + 100.0
        errors[:, 0] = 100.0
        errors[:, 3] = rng.permutation(np.append(-np.arange(1.0, 30.0), [0.3, 50.0]))
        errors[:, 4] = rng.permutation(np.append(-np.arange(1.0, 31.0), 0.3))
        errors[:, 5] = np.round(errors[:, 5] / 5.0) * 5.0
        model = fit_copula(errors, PC)
        grid = (np.arange(1, 32) - 0.5) / 31
        u_col = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                                0.5 * (grid[1:] + grid[:-1]),
                                [0.0, 0.5 * grid[0], 0.5 * (1.0 + grid[-1]), 1.0]])
        u = np.tile(u_col[:, None], (1, 6))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "special",
                       SimpleNamespace(ndtr=lambda _: u, ndtri=special.ndtri))
            out = sample_scenarios(model, np.zeros(6), u.shape[0], seed=0,
                                   pv_capacity_kw=1e9)
        expected = inverse_marginals_reference(model.sorted_errors_kw, model.degenerate, u)
        assert np.array_equal(out.values_kw, np.clip(expected, 0.0, 1e9))
        order_stats = np.clip(model.sorted_errors_kw[:, 1:], 0.0, None)
        assert np.array_equal(out.values_kw[:31, 1:], order_stats)
        assert np.array_equal(out.values_kw[-4:-2, 1:], order_stats[[0, 0]])
        assert np.array_equal(out.values_kw[-2:, 1:], order_stats[[-1, -1]])
        assert np.all(out.values_kw[:, 0] == 0.0)

    @pytest.mark.parametrize("days", [30, 61, 365])
    def test_inverse_marginals_one_and_two_ulps_from_every_plotting_position(self, days):
        # the sampler brackets u by rounding u * days, which can land one
        # position off exactly here; every value must still be np.interp's.
        # Column 3 has ties; the errors are positive, so nothing is clipped
        rng = np.random.default_rng(days)
        errors = rng.standard_normal((days, 4)) * 10.0 + 100.0
        errors[:, 3] = np.round(errors[:, 3] / 5.0) * 5.0
        model = fit_copula(errors, PC)
        grid = (np.arange(1, days + 1) - 0.5) / days
        below, above = np.nextafter(grid, 0.0), np.nextafter(grid, 1.0)
        u_col = np.concatenate([grid, below, np.nextafter(below, 0.0),
                                above, np.nextafter(above, 1.0),
                                [0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 1.0]])
        u = np.tile(u_col[:, None], (1, 4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "special",
                       SimpleNamespace(ndtr=lambda _: u, ndtri=special.ndtri))
            out = sample_scenarios(model, np.zeros(4), u.shape[0], seed=0,
                                   pv_capacity_kw=1e9)
        expected = inverse_marginals_reference(model.sorted_errors_kw, model.degenerate, u)
        assert np.all(expected > 0.0)
        assert out.values_kw.tobytes() == expected.tobytes()

    def test_segments_equal_the_binary_search(self):
        # a segment one off changes a value by an ulp at most, and for some
        # inputs not at all, so the index itself is checked: rounding u * days
        # counts one position short exactly at some plotting positions (index
        # 23 of 35 days) and one too many an ulp below others (index 11 of 30)
        rng = np.random.default_rng(17)
        smallest = np.nextafter(0.0, 1.0)
        for days in [*range(30, 400), 1000, 4096, 10007]:
            grid = (np.arange(1, days + 1) - 0.5) / days
            below, above = np.nextafter(grid, 0.0), np.nextafter(grid, 1.0)
            u = np.concatenate([grid, below, np.nextafter(below, 0.0),
                                above, np.nextafter(above, 1.0), rng.random(2000),
                                [0.0, smallest, np.nextafter(1.0, 0.0), 1.0]])
            expected = np.clip(np.searchsorted(grid, u, "right") - 1, 0, days - 2)
            j = scenarios._segments(u, np.append(grid, np.inf))
            assert np.array_equal(j, expected), days

    def test_point_mass_marginals_reproduce_forecast(self):
        t_n = 5
        model = CopulaModel(sorted_errors_kw=np.zeros((40, t_n)),
                            degenerate=np.ones(t_n, dtype=bool),
                            correlation=np.eye(t_n))
        forecast = np.array([0.0, 100.0, 500.0, 300.0, -20.0])
        out = sample_scenarios(model, forecast, 7, seed=3, pv_capacity_kw=PC)
        expected = np.clip(forecast, 0.0, PC)
        assert np.allclose(out.values_kw, expected[None, :])

    def test_single_scenario_deterministic(self):
        rng = np.random.default_rng(5)
        errors, _ = _correlated_errors(80, 8, 0.7, rng)
        model = fit_copula(errors, PC)
        forecast = np.full(8, 200.0)
        a = sample_scenarios(model, forecast, 1, seed=9, pv_capacity_kw=PC)
        b = sample_scenarios(model, forecast, 1, seed=9, pv_capacity_kw=PC)
        assert np.array_equal(a.values_kw, b.values_kw)
        assert a.n_scenarios == 1

    def test_seed_determinism_bit_exact(self):
        rng = np.random.default_rng(6)
        errors, _ = _correlated_errors(60, 12, 0.5, rng)
        model = fit_copula(errors, PC)
        forecast = np.linspace(0.0, 400.0, 12)
        a = sample_scenarios(model, forecast, 50, seed=42, pv_capacity_kw=PC)
        b = sample_scenarios(model, forecast, 50, seed=42, pv_capacity_kw=PC)
        assert np.array_equal(a.values_kw, b.values_kw)
        assert np.array_equal(a.weights, b.weights)
        c = sample_scenarios(model, forecast, 50, seed=43, pv_capacity_kw=PC)
        assert not np.array_equal(a.values_kw, c.values_kw)

    def test_marginal_std_recovered(self):
        # gaussian marginals realized empirically, independent lead times
        rng = np.random.default_rng(7)
        sigma = 25.0
        errors = rng.standard_normal((400, 6)) * sigma
        model = fit_copula(errors, PC)
        forecast = np.full(6, 230.0)   # far from the clip boundaries
        out = sample_scenarios(model, forecast, 10_000, seed=11, pv_capacity_kw=PC)
        dev = out.values_kw - forecast[None, :]
        stds = dev.std(axis=0)
        assert np.all(np.abs(stds / sigma - 1.0) < 0.05)

    def test_weights_and_box(self):
        rng = np.random.default_rng(8)
        errors, _ = _correlated_errors(45, 10, 0.6, rng, scale=80.0)
        model = fit_copula(errors, PC)
        forecast = np.linspace(0.0, 460.0, 10)
        out = sample_scenarios(model, forecast, 333, seed=1, pv_capacity_kw=PC)
        assert np.sum(out.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.values_kw >= 0.0)
        assert np.all(out.values_kw <= PC)

    def test_generated_scores_reproduce_correlation(self):
        rng = np.random.default_rng(9)
        errors, _ = _correlated_errors(250, 10, 0.8, rng)
        model = fit_copula(errors, PC)
        forecast = np.full(10, 1e6)     # keep additions unclipped: cap below
        out = sample_scenarios(model, forecast, 10_000, seed=77,
                               pv_capacity_kw=1e9)
        dev = out.values_kw - forecast[None, :]
        scores = np.empty_like(dev)
        for k, zs in enumerate(model.sorted_errors_kw.T):
            u = np.interp(dev[:, k], zs, (np.arange(1, zs.size + 1) - 0.5) / zs.size)
            scores[:, k] = special.ndtri(np.clip(u, 1e-9, 1 - 1e-9))
        r_gen = np.corrcoef(scores, rowvar=False)
        assert np.max(np.abs(r_gen - model.correlation)) <= 0.05

    def test_rank_histogram_uniform(self):
        rng = np.random.default_rng(10)
        errors, _ = _correlated_errors(300, 6, 0.4, rng)
        model = fit_copula(errors, PC)
        forecast = np.full(6, 1e6)
        out = sample_scenarios(model, forecast, 10_000, seed=13,
                               pv_capacity_kw=1e9)
        dev = out.values_kw - forecast[None, :]
        n_bins = 20
        for k, zs in enumerate(model.sorted_errors_kw.T):
            u = np.interp(dev[:, k], zs, (np.arange(1, zs.size + 1) - 0.5) / zs.size)
            counts, _ = np.histogram(u, bins=n_bins, range=(0.0, 1.0))
            expected = dev.shape[0] / n_bins
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            p = stats.chi2.sf(chi2, n_bins - 1)
            assert p > 0.01, f"lead time {k}: p={p}"

    def test_matches_the_per_element_transform(self):
        # one substream and one Cholesky product per scenario, then each
        # coordinate through its marginal; lead time 0 is degenerate
        rng = np.random.default_rng(12)
        errors, _ = _correlated_errors(60, 8, 0.6, rng)
        errors[:, 0] = 0.0
        model = fit_copula(errors, PC)
        assert model.degenerate[0]
        forecast = np.linspace(50.0, 400.0, 8)
        out = sample_scenarios(model, forecast, 25, seed=4, pv_capacity_kw=PC)
        grid = (np.arange(1, 61) - 0.5) / 60
        expected = np.empty((25, 8))
        for w, child in enumerate(np.random.SeedSequence(4).spawn(25)):
            rng_w = np.random.Generator(np.random.PCG64(child))
            u = special.ndtr(model.cholesky_factor @ rng_w.standard_normal(8))
            z = [0.0 if model.degenerate[k]
                 else np.interp(u[k], grid, model.sorted_errors_kw[:, k])
                 for k in range(8)]
            expected[w] = np.clip(forecast + z, 0.0, PC)
        assert np.array_equal(out.values_kw, expected)

    def test_zero_scenarios_rejected(self):
        model = CopulaModel(sorted_errors_kw=np.zeros((40, 1)),
                            degenerate=np.ones(1, dtype=bool),
                            correlation=np.eye(1))
        with pytest.raises(ValueError):
            sample_scenarios(model, np.array([100.0]), 0, seed=0, pv_capacity_kw=PC)

    @pytest.mark.parametrize("capacity", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_capacity_rejected(self, capacity):
        # clipped to [0, 0], every scenario would be a valid-looking zero
        errors, _ = _correlated_errors(40, 8, 0.5, np.random.default_rng(4))
        model = fit_copula(errors, PC)
        with pytest.raises(ValueError, match="pv_capacity_kw"):
            sample_scenarios(model, np.full(8, 100.0), 3, seed=0, pv_capacity_kw=capacity)


# entropy of one to five 32-bit words, and benchmark seeds season * 1000 + day
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11, 1060, 4107, 7150]


class TestSubstreams:
    @pytest.mark.parametrize("n", [1, 20, 100, 257, 1000])
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_child_words_equal_numpys_spawn(self, seed, n):
        # a numpy whose SeedSequence hash changes fails here, loudly
        expected = np.array([child.generate_state(4, np.uint64)
                             for child in np.random.SeedSequence(seed).spawn(n)])
        words = scenarios._substream_words(seed, n)
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        assert words.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_scenario_sets_are_nested(self, seed):
        model = fit_copula(_night_history(False), PC)
        forecast = np.full(96, 200.0)
        small = sample_scenarios(model, forecast, 20, seed, PC)
        large = sample_scenarios(model, forecast, 100, seed, PC)
        assert small.values_kw.tobytes() == large.values_kw[:20].tobytes()

    def test_numpy_integer_seed_draws_as_its_int(self):
        model = fit_copula(_night_history(False), PC)
        forecast = np.full(96, 200.0)
        a = sample_scenarios(model, forecast, 5, np.int64(7150), PC)
        b = sample_scenarios(model, forecast, 5, 7150, PC)
        assert a.values_kw.tobytes() == b.values_kw.tobytes()

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (1.5, TypeError), ([1, 2], TypeError), (None, TypeError),
    ], ids=["negative", "float", "sequence", "none"])
    def test_invalid_seed_rejected(self, seed, error):
        model = fit_copula(_night_history(False), PC)
        with pytest.raises(error):
            sample_scenarios(model, np.full(96, 200.0), 3, seed, PC)

    def test_non_integer_scenario_count_rejected(self):
        model = fit_copula(_night_history(False), PC)
        with pytest.raises(TypeError):
            sample_scenarios(model, np.full(96, 200.0), 20.0, 0, PC)


class TestScenarioSet:
    def test_single(self):
        s = ScenarioSet.single(np.array([1.0, 2.0, 3.0]))
        assert s.n_scenarios == 1
        assert s.weights[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.ones((2, 3)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            ScenarioSet(-np.ones((1, 3)), np.array([1.0]))

    @pytest.mark.parametrize("values, weights", [
        (np.array([[1.0, np.nan, 3.0]]), np.array([1.0])),
        (np.array([[1.0, np.inf, 3.0]]), np.array([1.0])),
        (np.ones((2, 3)), np.array([np.nan, 1.0])),
    ], ids=["nan_values", "inf_values", "nan_weights"])
    def test_non_finite_rejected(self, values, weights):
        with pytest.raises(ValueError):
            ScenarioSet(values, weights)
