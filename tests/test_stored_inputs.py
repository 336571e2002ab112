"""The benchmark inputs stored in tests/data are what the benchmark computes.

The planner, controller and solver tests run days of the benchmark from
these files, so they need neither the season generator nor the forecast
front end. Each test here recomputes one file from the generator
(bench/season.py) and the workloads (bench/workloads.py) and asserts that
every stored array is bitwise equal to its recomputation: a change to the
front end that moves the benchmark's inputs shows here, not as tests
silently checking a neighbouring input.

Every array is named by its season seed, target day and field: the file
``<mode>_season<s>_day<d>.npz`` holds fields, and ``screened_ops.npz`` holds
``season<s>_day<d>_<field>`` keys. The fields are the realized PV
(``power_kw``), the point forecast (``forecast_kw``), and the scenario
values and weights of the day_s20 workload (``values_kw``, ``weights``).

To rewrite the files that differ from the benchmark, from the root of the
repository::

    PYTHONPATH=src python tests/test_stored_inputs.py
"""

import re
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import season as gen  # noqa: E402
import workloads  # noqa: E402
from capfirm import pvusa  # noqa: E402

FILES = sorted(path.name for path in DATA.glob("*.npz"))
NAME = re.compile(r"season(\d+)_day(\d+)(?:_(\w+))?")


@lru_cache(maxsize=None)
def _season(seed: int) -> gen.Season:
    return gen.make_season(seed)


@lru_cache(maxsize=None)
def _scenarios(seed: int, day: int):
    """The day_s20 workload's scenario set of one day."""
    workload = workloads.DayS20(_season(seed), seed=0)
    weather, power = workload._history(day)
    params = pvusa.steady_state_fit(power, weather)
    return workload._scenarios(params, day, workloads.DAY_SCENARIOS)


def recompute(seed: int, day: int, field: str) -> np.ndarray:
    if field in ("values_kw", "weights"):
        return getattr(_scenarios(seed, day), field)
    return getattr(_season(seed), field)[day]


def expected(name: str, keys) -> dict:
    """Each key of stored file ``name``, recomputed from the benchmark."""
    arrays = {}
    for key in keys:
        match = NAME.search(key if name == "screened_ops.npz" else f"{name[:-4]}_{key}")
        seed, day, field = match.groups()
        arrays[key] = recompute(int(seed), int(day), field)
    return arrays


def test_the_stored_files_are_found():
    assert {"s20_season4_day132.npz", "screened_ops.npz"} <= set(FILES)


@pytest.mark.parametrize("name", FILES)
def test_stored_inputs_equal_the_benchmark_bitwise(name):
    with np.load(DATA / name) as data:
        stored = {key: data[key] for key in data.files}
    fresh = expected(name, stored)
    differ = {key: float(np.max(np.abs(stored[key] - fresh[key])))
              for key in stored if not np.array_equal(stored[key], fresh[key])}
    assert not differ, f"{name}: largest difference per key {differ}"


if __name__ == "__main__":
    for name in FILES:
        with np.load(DATA / name) as data:
            stored = {key: data[key] for key in data.files}
        fresh = expected(name, stored)
        if not all(np.array_equal(stored[key], fresh[key]) for key in stored):
            np.savez_compressed(DATA / name, **fresh)
            print("rewrote", DATA / name)
