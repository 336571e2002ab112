"""Small shared fixtures: toy grids, policies and battery systems."""

from dataclasses import replace

import numpy as np

from capfirm.domain import SystemConfig, TimeGrid, build_cre_policy


def toy_grid(n_periods, delta_t=0.25, peak=None):
    mask = np.zeros(n_periods, dtype=bool)
    if peak is not None:
        mask[list(peak)] = True
    return TimeGrid(n_periods, delta_t, mask)


def toy_policy(grid, price_offpeak=100.0, price_peak=200.0, pv_capacity=100.0,
               ramp_frac_offpeak=None, prod_min_frac_peak=None, deadband_frac=None):
    """The reference tender, with any rule given here set to another fraction."""
    policy = build_cre_policy(grid, price_offpeak, price_peak, pv_capacity)
    peak = grid.peak_mask
    changes = {}
    if ramp_frac_offpeak is not None:
        changes["ramp_limit_kw"] = np.where(peak, policy.ramp_limit_kw,
                                            ramp_frac_offpeak * pv_capacity)
    if prod_min_frac_peak is not None:
        changes["prod_min_kw"] = np.where(peak, prod_min_frac_peak * pv_capacity,
                                          policy.prod_min_kw)
    if deadband_frac is not None:
        changes["deadband_kw"] = deadband_frac * pv_capacity
    return replace(policy, **changes)


def toy_system(pv_capacity=100.0, capacity_kwh=30.0, hours_to_full=1.0,
               soc_frac=(0.1, 0.9), eta=0.95):
    power = capacity_kwh / hours_to_full
    return SystemConfig(
        pv_capacity_kw=pv_capacity,
        bess_capacity_kwh=capacity_kwh,
        bess_min_kwh=soc_frac[0] * capacity_kwh,
        charge_power_kw=power,
        discharge_power_kw=power,
        eta_charge=eta,
        eta_discharge=eta,
        soc_init_kwh=soc_frac[0] * capacity_kwh,
        soc_end_kwh=soc_frac[0] * capacity_kwh,
        soc_max_kwh=soc_frac[1] * capacity_kwh,
    )


def no_bess_system(pv_capacity=100.0, pinned_soc=5.0):
    """Battery frozen by a zero-width SoC window: flows are forced to zero."""
    return SystemConfig(
        pv_capacity_kw=pv_capacity,
        bess_capacity_kwh=pinned_soc,
        bess_min_kwh=pinned_soc,
        charge_power_kw=10.0,
        discharge_power_kw=10.0,
        eta_charge=0.95,
        eta_discharge=0.95,
        soc_init_kwh=pinned_soc,
        soc_end_kwh=pinned_soc,
        soc_max_kwh=pinned_soc,
    )
