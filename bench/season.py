"""Seeded synthetic season: weather, measured PV power and a weather forecast.

The generator is self-contained (numpy only) so that the inputs of a run do
not change when the package changes. Its constants copy the ``synthetic.*``,
``plant.*`` and ``grid.*`` defaults of ``capfirm.config`` and the generating
PVUSA coefficients ``capfirm.pvusa.REFERENCE_PARAMS``. They are copied rather
than imported because ``capfirm.config`` cannot be imported: it needs
``capfirm.sizing.EconParams`` and ``capfirm.sizing`` does not exist.

Model of one season of ``N_DAYS`` days on a quarter-hour grid:

- daily clearness ``k_d``: AR(1) with coefficient 0.85, rescaled to mean
  0.60 and standard deviation 0.25 over the season, clipped to [0.05, 1].
  The rescaling gives every seed equally sunny seasons on average, so seeds
  differ in the order of their weather and not in its overall level;
- intraday clearness: ``k_d`` plus a smooth AR(1) fluctuation per quarter
  hour, so forecast errors are correlated across lead times but not rank one;
- irradiance: a Haurwitz clear-sky profile (local solar time) times the
  clearness; air temperature follows the clearness and the hour of day;
- measured power: the PVUSA model with the reference coefficients, plus
  Gaussian measurement noise at daytime, clipped to [0, capacity], so a
  PVUSA fit is close to the generating coefficients but not exact;
- weather forecast of day ``d``: the AR(1) one-step prediction of ``k_d``
  from ``k_{d-1}``, with no intraday fluctuation; ``forecast_kw`` is the
  reference PVUSA power on that forecast weather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PV_CAPACITY_KW = 466.4
LATITUDE_DEG = 50.6
START_DATE = "2019-08-03"
N_DAYS = 151
HISTORY_DAYS = 60
DELTA_T_HOURS = 0.25
PERIODS = 96
AR1_COEFF = 0.85
INDEX_STD = 0.25
INDEX_MEAN = 0.60
REFERENCE_ABC = (0.573, -7.68e-5, -1.86e-3)

INTRADAY_COEFF = 0.95         # quarter-hour AR(1) of the intraday fluctuation
INTRADAY_STD = 0.08
NOISE_STD_FRAC = 0.01         # measurement noise, share of the capacity
DAYTIME_WM2 = 5.0


@dataclass(frozen=True)
class Season:
    """Arrays of one synthetic season; day-major ``(N_DAYS, PERIODS)``."""

    seed: int
    timestamps: np.ndarray        # (N_DAYS * PERIODS,) datetime64[ns]
    clearness: np.ndarray         # (N_DAYS,) daily index k_d
    irradiance_wm2: np.ndarray
    temperature_c: np.ndarray
    power_kw: np.ndarray          # measured
    forecast_irradiance_wm2: np.ndarray
    forecast_temperature_c: np.ndarray
    forecast_kw: np.ndarray       # reference PVUSA on the forecast weather

    @property
    def target_days(self) -> np.ndarray:
        """Days with a full trailing history of ``HISTORY_DAYS`` days."""
        return np.arange(HISTORY_DAYS, N_DAYS)


def clear_sky_wm2(timestamps: np.ndarray) -> np.ndarray:
    """Haurwitz clear-sky global irradiance at ``LATITUDE_DEG``."""
    day_start = timestamps.astype("datetime64[D]")
    hour = (timestamps - day_start) / np.timedelta64(1, "h")
    doy = (day_start - day_start.astype("datetime64[Y]")) / np.timedelta64(1, "D") + 1.0
    decl = np.deg2rad(23.45) * np.sin(2.0 * np.pi * (284.0 + doy) / 365.0)
    lat = np.deg2rad(LATITUDE_DEG)
    hour_angle = np.deg2rad(15.0 * (hour - 12.0))
    cos_z = np.clip(np.sin(lat) * np.sin(decl)
                    + np.cos(lat) * np.cos(decl) * np.cos(hour_angle), 0.0, 1.0)
    return np.where(cos_z > 0.0,
                    1098.0 * cos_z * np.exp(-0.059 / np.maximum(cos_z, 1e-9)), 0.0)


def pvusa_kw(irradiance_wm2: np.ndarray, temperature_c: np.ndarray) -> np.ndarray:
    a, b, c = REFERENCE_ABC
    power = a * irradiance_wm2 + b * irradiance_wm2 ** 2 + c * irradiance_wm2 * temperature_c
    return np.clip(power, 0.0, PV_CAPACITY_KW)


def _temperature(clearness: np.ndarray, hours: np.ndarray, day_frac: np.ndarray):
    return (8.0 + 10.0 * clearness - 8.0 * day_frac
            + 5.0 * np.sin(2.0 * np.pi * (hours - 9.0) / 24.0))


def make_season(seed: int) -> Season:
    """Generate one season; the same seed gives bit-identical arrays."""
    rng = np.random.default_rng(seed)
    shape = (N_DAYS, PERIODS)
    timestamps = (np.datetime64(START_DATE, "ns")
                  + np.arange(N_DAYS * PERIODS)
                  * np.timedelta64(int(DELTA_T_HOURS * 3600), "s"))
    clear = clear_sky_wm2(timestamps).reshape(shape)
    hours = np.arange(PERIODS) * DELTA_T_HOURS
    day_frac = (np.arange(N_DAYS) / N_DAYS)[:, None]

    x = np.empty(N_DAYS)
    x[0] = rng.standard_normal()
    for d in range(1, N_DAYS):
        x[d] = AR1_COEFF * x[d - 1] + np.sqrt(1.0 - AR1_COEFF ** 2) * rng.standard_normal()
    k = np.clip(INDEX_MEAN + INDEX_STD * (x - x.mean()) / x.std(), 0.05, 1.0)

    wiggle = np.empty(shape)
    wiggle[:, 0] = rng.standard_normal(N_DAYS)
    step = np.sqrt(1.0 - INTRADAY_COEFF ** 2)
    for t in range(1, PERIODS):
        wiggle[:, t] = INTRADAY_COEFF * wiggle[:, t - 1] + step * rng.standard_normal(N_DAYS)
    k_t = np.clip(k[:, None] + INTRADAY_STD * wiggle, 0.02, 1.05)

    irradiance = clear * k_t
    temperature = (_temperature(k[:, None], hours[None, :], day_frac)
                   + 0.5 * rng.standard_normal(shape))
    noise = NOISE_STD_FRAC * PV_CAPACITY_KW * rng.standard_normal(shape)
    power = np.clip(pvusa_kw(irradiance, temperature)
                    + np.where(irradiance > DAYTIME_WM2, noise, 0.0),
                    0.0, PV_CAPACITY_KW)

    k_hat = np.empty(N_DAYS)
    k_hat[0] = INDEX_MEAN
    k_hat[1:] = INDEX_MEAN + AR1_COEFF * (k[:-1] - INDEX_MEAN)
    k_hat = np.clip(k_hat, 0.05, 1.0)
    fc_irradiance = clear * k_hat[:, None]
    fc_temperature = _temperature(k_hat[:, None], hours[None, :], day_frac)

    return Season(
        seed=seed, timestamps=timestamps, clearness=k,
        irradiance_wm2=irradiance, temperature_c=temperature, power_kw=power,
        forecast_irradiance_wm2=fc_irradiance,
        forecast_temperature_c=fc_temperature,
        forecast_kw=pvusa_kw(fc_irradiance, fc_temperature),
    )
