"""Day-ahead capacity firming of a PV + battery plant.

Modules: PV power modeling (:mod:`capfirm.pvusa`), scenario generation
(:mod:`capfirm.scenarios`), tariff, plant and remuneration rules
(:mod:`capfirm.domain`), the structured QP/MIQP engine
(:mod:`capfirm.optim`), day-ahead planning (:mod:`capfirm.planner`) and
intraday control (:mod:`capfirm.controller`).
"""

__version__ = "0.1.0"
