"""Copula estimation and scenario sampling."""

import numpy as np
import pytest
from scipy import special, stats

from capfirm import scenarios
from capfirm.scenarios import (
    CopulaModel,
    ErrorMarginal,
    EstimationError,
    ScenarioSet,
    fit_copula,
    sample_scenarios,
)

PC = 466.4


def _correlated_errors(days, t_n, rho, rng, scale=30.0):
    """History with AR(1)-style cross-lead-time correlation rho^|i-j|."""
    base = np.arange(t_n)
    r_true = rho ** np.abs(base[:, None] - base[None, :])
    low = np.linalg.cholesky(r_true)
    return (rng.standard_normal((days, t_n)) @ low.T) * scale, r_true


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
        flags = [m.degenerate for m in model.marginals]
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

    def test_average_ranks_match_rankdata(self):
        # whole-kW errors tie often; the ranks, and through them the fitted
        # correlation, must be bit-identical to scipy's average ranks
        rng = np.random.default_rng(5)
        errors = np.round(_correlated_errors(60, 96, 0.9, rng, scale=2.0)[0])
        for col in errors.T:
            assert np.array_equal(scenarios._average_ranks(np.sort(col), col),
                                  stats.rankdata(col, method="average"))
        fitted = fit_copula(errors, PC)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "_average_ranks",
                       lambda s, e: stats.rankdata(e, method="average"))
            reference = fit_copula(errors, PC)
        assert np.array_equal(fitted.correlation, reference.correlation)


class TestSampleScenarios:
    def test_point_mass_marginals_reproduce_forecast(self):
        t_n = 5
        marginals = tuple(ErrorMarginal(k, np.zeros(40), True) for k in range(t_n))
        model = CopulaModel(marginals, np.eye(t_n), np.eye(t_n))
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
        for k, marg in enumerate(model.marginals):
            zs = marg.sorted_errors_kw
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
        for k, marg in enumerate(model.marginals):
            zs = marg.sorted_errors_kw
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
        assert model.marginals[0].degenerate
        forecast = np.linspace(50.0, 400.0, 8)
        out = sample_scenarios(model, forecast, 25, seed=4, pv_capacity_kw=PC)
        expected = np.empty((25, 8))
        for w, child in enumerate(np.random.SeedSequence(4).spawn(25)):
            rng_w = np.random.Generator(np.random.PCG64(child))
            u = special.ndtr(model.cholesky_factor @ rng_w.standard_normal(8))
            z = [0.0 if m.degenerate else m.inverse_cdf(u[k])
                 for k, m in enumerate(model.marginals)]
            expected[w] = np.clip(forecast + z, 0.0, PC)
        assert np.array_equal(out.values_kw, expected)

    def test_zero_scenarios_rejected(self):
        marginals = (ErrorMarginal(0, np.zeros(40), True),)
        model = CopulaModel(marginals, np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            sample_scenarios(model, np.array([100.0]), 0, seed=0, pv_capacity_kw=PC)


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
