"""Run configuration: import, defaults and key validation."""

import numpy as np
import pytest

from capfirm.config import (
    ConfigError,
    apply_overrides,
    build_grid,
    build_policy,
    default_config,
)
from capfirm.domain import build_cre_policy


def test_default_policy_is_the_reference_cre_policy():
    config = default_config()
    grid = build_grid(config)
    got = build_policy(config, grid)
    want = build_cre_policy(grid, 100.0, 200.0, 466.4)
    for name in ("price_eur_mwh", "ramp_limit_kw", "eng_min_kw", "eng_max_kw",
                 "prod_min_kw", "prod_max_kw"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.deadband_kw == want.deadband_kw
    assert got.pv_capacity_kw == want.pv_capacity_kw


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), {"tariff.no_such_key": "1"})


@pytest.mark.parametrize("key", [
    # keys of features that no code implements
    "sim.withdrawal_price_eur_mwh",
    "synthetic.forecast_error_std_frac",
    "synthetic.forecast_bias_frac",
])
def test_removed_key_rejected(key):
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), {key: "1"})
