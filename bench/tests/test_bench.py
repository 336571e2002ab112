"""Tests of the benchmark itself: inputs, tracer hygiene and the output line.

Run from the root of the repository::

    python -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import run
import screen
import season
import tracer as tracing
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _arrays(s: season.Season) -> dict:
    return {k: v for k, v in vars(s).items() if isinstance(v, np.ndarray)}


def test_same_seed_gives_identical_arrays():
    a, b = _arrays(season.make_season(7)), _arrays(season.make_season(7))
    assert a.keys() == b.keys() and len(a) >= 8
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def test_other_seed_gives_other_arrays():
    a, b = _arrays(season.make_season(7)), _arrays(season.make_season(8))
    for key in ("clearness", "irradiance_wm2", "power_kw", "forecast_kw"):
        assert not np.array_equal(a[key], b[key]), key


def test_same_seed_gives_same_ops():
    one = workloads.make("sweep_det", 5).ops()
    two = workloads.make("sweep_det", 5).ops()
    assert [next(one) for _ in range(40)] == [next(two) for _ in range(40)]


def test_seed_picks_a_screened_season():
    screen = workloads.load_screen()
    seasons = screen["seasons"]
    assert set(screen["excluded"]) == set(run.WORKLOAD_NAMES)
    for seed in range(2 * len(seasons)):
        wl = workloads.make("day_s20", seed, screen)
        assert wl.season.seed == seasons[seed % len(seasons)]
        assert wl.excluded == {
            workloads.OpSpec(r["day"], r["ratio"], r["price"], r["mode"])
            for r in screen["excluded"]["day_s20"] if r["season"] == wl.season.seed}


def test_excluded_ops_are_never_attempted():
    s = season.make_season(5)
    every = workloads.SweepDet(s, seed=5).all_ops()
    skip = {next(every) for _ in range(3)}
    ops = workloads.SweepDet(s, seed=5, excluded=skip).ops()
    assert not skip & {next(ops) for _ in range(2000)}


def test_screening_visits_every_op_once():
    s = season.make_season(5)
    n_days = s.target_days.size
    per_day = {"day_s20": 1, "sweep_det": 2 * len(workloads.PRICES_EUR_MWH),
               "forecast_s100": 1}
    for name, count in per_day.items():
        ops = screen.distinct_ops(workloads.WORKLOADS[name](s, seed=0))
        assert len(ops) == len(set(ops)) == n_days * count, name


def test_sweep_meets_every_ratio_in_any_seven_days():
    wl = workloads.SweepDet(season.make_season(5), seed=9)
    days = wl._days()
    ratios = [wl._ratio(next(days)) for _ in range(3 * len(workloads.RATIOS))]
    for i in range(len(ratios) - len(workloads.RATIOS) + 1):
        assert set(ratios[i:i + len(workloads.RATIOS)]) == set(workloads.RATIOS)


def _originals():
    found = {}
    for module_name, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        found[(module_name, path)] = getattr(owner, attr)
    return found


def test_wrappers_restored_after_traced_op():
    before = _originals()
    wl = workloads.make("sweep_det", 2)
    runner = run.Runner(wl, workloads)
    tracer = tracing.Tracer()
    _, good = runner.op(next(wl.ops()), tracer)
    assert good and not runner.checks.violations
    assert _originals() == before
    names = {s.name for s in tracer.spans}
    assert {"planner.build_planning_qp", "optim.solve_qp",
            "controller.day_economics"} <= names
    assert not tracer.missing


def test_wrappers_restored_when_op_raises():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            raise RuntimeError("op failed")
    assert _originals() == before


def test_missing_attribute_is_reported_absent():
    targets = tracing.TARGETS + (
        ("capfirm.optim", "no_such_function", "optim.gone", None),
        ("capfirm.pvusa", "clear_sky_irradiance", "pvusa.clear_sky",
         lambda result: result.no_such_field),
    )
    tracer = tracing.Tracer(targets)
    with tracer.installed():
        importlib.import_module("capfirm.pvusa").clear_sky_irradiance(50.0, "2019-08-03T12:00")
    assert tracer.missing == {"optim.gone", "pvusa.clear_sky.result"}


def test_metrics_of_missing_spans_are_absent():
    tracer = tracing.Tracer()
    tracer.missing = {"optim.solve_qp.result", "pvusa.fit_pvusa"}
    with tracer.span("op"):
        pass
    metrics = run.per_layer(tracer, 1, 1.0, 1.0)
    assert "optim.qp_s" in metrics and "optim.iterations" not in metrics
    assert not {"pvusa.rolling_fit_s", "pvusa.windows"} & set(metrics)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)


def test_calibration_samples_once_per_interval_of_op_time():
    cal = calibrate.Calibration()
    cal.warm()
    assert len(cal.samples) == calibrate.WARM_SAMPLES
    cal.after_op(0.6 * calibrate.EVERY_S)
    assert len(cal.samples) == calibrate.WARM_SAMPLES
    cal.after_op(0.6 * calibrate.EVERY_S)
    assert len(cal.samples) == calibrate.WARM_SAMPLES + 1
    assert cal.slowdown == pytest.approx(np.mean(cal.samples) / calibrate.NOMINAL_S)


class _Stuck:
    name = "stuck"
    stage = "planner"

    def run(self, spec):
        time.sleep(5.0)


def test_op_over_the_limit_becomes_a_failure_record(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    runner = run.Runner(_Stuck(), workloads)
    elapsed, good = runner.op(workloads.OpSpec(day=70))
    assert not good and elapsed < 1.0
    (record,) = runner.failures
    assert record["error"] == "OpTimeout" and record["layer"] == "planner"
    assert record["day"] == 70


def test_tail_counts_failures_as_slowest():
    durations = [float(i) for i in range(1, 21)]
    ok = [True] * 19 + [False]
    stats = run.latency_stats(durations, ok)
    assert stats["n"] == 20 and stats["beyond"] == 10
    assert stats["tail"] == 10.0 and stats["tail_pct"] == 50.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"], out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_det", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
