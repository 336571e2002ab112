"""Run configuration: defaults, the flat file format, and object builders.

The config file is plain text with one ``section.key = value`` pair per line;
``#`` starts a comment. Every key has a default carrying the reference tender
and system numbers (quarter-hour grid, 19-21 h peak window, CRE-style bound
fractions, battery able to fully charge in one hour inside a 10-90 % SoC
window, 300/700 EUR capex split, 20 years at 5 %, 3000-cycle battery life,
the 7x8 sizing grid). The peak window and the tender fractions are the
:mod:`capfirm.domain` constants. The ``econ.*``, ``scenarios.*``,
``sizing.*`` and ``synthetic.*`` keys are parsed so that config files
carrying them load, but no builder reads them yet. The ``synthetic.*`` keys
describe a synthetic season: its length, start date and AR(1) daily
clearness index. There is no key for a feature that no code implements.
Unknown keys are rejected listing the valid ones.
"""

from __future__ import annotations

from . import domain
from .domain import SystemConfig, TariffPolicy, TimeGrid, build_cre_policy


class ConfigError(ValueError):
    """Bad key or unparsable value in a config file or override."""


DEFAULTS: dict[str, float | int | str] = {
    "grid.delta_t_hours": 0.25,
    "grid.peak_start_hour": domain.PEAK_START_HOUR,
    "grid.peak_end_hour": domain.PEAK_END_HOUR,
    "plant.pv_capacity_kw": 466.4,
    "plant.latitude_deg": 50.6,
    "tariff.price_offpeak_eur_mwh": 100.0,
    "tariff.peak_price_factor": 2.0,
    "tariff.ramp_frac_offpeak": domain.RAMP_FRAC_OFFPEAK,
    "tariff.ramp_frac_peak": domain.RAMP_FRAC_PEAK,
    "tariff.eng_min_frac_offpeak": domain.ENG_MIN_FRAC_OFFPEAK,
    "tariff.eng_min_frac_peak": domain.ENG_MIN_FRAC_PEAK,
    "tariff.prod_min_frac_offpeak": domain.PROD_MIN_FRAC_OFFPEAK,
    "tariff.prod_min_frac_peak": domain.PROD_MIN_FRAC_PEAK,
    "tariff.eng_max_frac": domain.ENG_MAX_FRAC,
    "tariff.prod_max_frac": domain.PROD_MAX_FRAC,
    "tariff.deadband_frac": domain.DEADBAND_FRAC,
    "bess.ratio": 0.5,
    "bess.hours_to_full": 1.0,
    "bess.eta_charge": 0.95,
    "bess.eta_discharge": 0.95,
    "bess.soc_min_frac": 0.10,
    "bess.soc_max_frac": 0.90,
    "bess.soc_init_frac": 0.10,
    "econ.capex_bess_eur_kwh": 300.0,
    "econ.capex_pv_eur_kw": 700.0,
    "econ.opex_frac": 0.01,
    "econ.lifetime_years": 20,
    "econ.discount_rate": 0.05,
    "econ.cycle_life": 3000.0,
    "scenarios.count": 20,
    "sizing.ratios": "0.5,0.75,1,1.25,1.5,1.75,2",
    "sizing.prices_eur_mwh": "50,100,150,200,250,300,350,400",
    "synthetic.days": 151,
    "synthetic.start_date": "2019-08-03",
    "synthetic.ar1_coeff": 0.85,
    "synthetic.index_std": 0.25,
    "synthetic.index_mean": 0.60,
}


def default_config() -> dict:
    return dict(DEFAULTS)


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} expects a number, got {raw!r}") from exc
    return raw


def apply_overrides(config: dict, pairs: dict[str, str]) -> dict:
    out = dict(config)
    for key, raw in pairs.items():
        if key not in DEFAULTS:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: "
                + ", ".join(sorted(DEFAULTS)))
        out[key] = _coerce(key, str(raw))
    return out


def load_config(path) -> dict:
    """Read a flat config file on top of the defaults."""
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
            key, raw = text.split("=", 1)
            pairs[key.strip()] = raw
    return apply_overrides(default_config(), pairs)


def dump_config(config: dict) -> str:
    """Render a config as the flat text format (stable key order)."""
    lines = [f"{key} = {config[key]}" for key in DEFAULTS]
    return "\n".join(lines) + "\n"


def parse_grid_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {raw!r}") from exc


def build_grid(config: dict) -> TimeGrid:
    return TimeGrid.daily(
        delta_t_hours=float(config["grid.delta_t_hours"]),
        peak_start_hour=float(config["grid.peak_start_hour"]),
        peak_end_hour=float(config["grid.peak_end_hour"]),
    )


def build_policy(config: dict, grid: TimeGrid,
                 price_offpeak_eur_mwh: float | None = None) -> TariffPolicy:
    price = (float(config["tariff.price_offpeak_eur_mwh"])
             if price_offpeak_eur_mwh is None else float(price_offpeak_eur_mwh))
    return build_cre_policy(
        grid,
        price_offpeak_eur_mwh=price,
        price_peak_eur_mwh=price * float(config["tariff.peak_price_factor"]),
        pv_capacity_kw=float(config["plant.pv_capacity_kw"]),
        ramp_frac_offpeak=float(config["tariff.ramp_frac_offpeak"]),
        ramp_frac_peak=float(config["tariff.ramp_frac_peak"]),
        eng_min_frac_offpeak=float(config["tariff.eng_min_frac_offpeak"]),
        eng_min_frac_peak=float(config["tariff.eng_min_frac_peak"]),
        prod_min_frac_offpeak=float(config["tariff.prod_min_frac_offpeak"]),
        prod_min_frac_peak=float(config["tariff.prod_min_frac_peak"]),
        eng_max_frac=float(config["tariff.eng_max_frac"]),
        prod_max_frac=float(config["tariff.prod_max_frac"]),
        deadband_frac=float(config["tariff.deadband_frac"]),
    )


def build_system(config: dict, ratio: float | None = None) -> SystemConfig:
    """Plant physics for a given battery-to-PV ratio (defaults to bess.ratio).

    The nominal capacity is ratio * pv_capacity (kWh per kW); the SoC window,
    boundary state and charge/discharge power derive from it.
    """
    r = float(config["bess.ratio"]) if ratio is None else float(ratio)
    pc = float(config["plant.pv_capacity_kw"])
    cap = r * pc
    power = cap / float(config["bess.hours_to_full"])
    return SystemConfig(
        pv_capacity_kw=pc,
        bess_capacity_kwh=cap,
        bess_min_kwh=float(config["bess.soc_min_frac"]) * cap,
        charge_power_kw=power,
        discharge_power_kw=power,
        eta_charge=float(config["bess.eta_charge"]),
        eta_discharge=float(config["bess.eta_discharge"]),
        soc_init_kwh=float(config["bess.soc_init_frac"]) * cap,
        soc_end_kwh=float(config["bess.soc_init_frac"]) * cap,
        soc_max_kwh=float(config["bess.soc_max_frac"]) * cap,
    )
