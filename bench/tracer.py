"""Spans around the package's public functions, recorded from outside.

The tracer replaces module attributes (``capfirm.optim.solve_qp``, ...) by
wrappers only while it is installed, and puts the originals back when it is
removed. A wrapper records one span per call: name, parent span, start, end,
the exception type if the call raised, and a few counts read from the
result. Spans stay in memory; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _qp(sol):
    return {"status": sol.status.value, "iterations": sol.iterations}


def _miqp(sol):
    return {"nodes": sol.bnb.nodes, "repaired": sol.bnb.repaired}


# (module, attribute path as the callers look it up, span name, result reader)
TARGETS = (
    ("capfirm.pvusa", "fit_pvusa", "pvusa.fit_pvusa", lambda r: {"windows": len(r)}),
    ("capfirm.pvusa", "steady_state_fit", "pvusa.steady_state_fit", None),
    ("capfirm.pvusa", "pvusa_eval", "pvusa.pvusa_eval", None),
    ("capfirm.scenarios", "fit_copula", "scenarios.fit_copula", None),
    ("capfirm.scenarios", "sample_scenarios", "scenarios.sample_scenarios",
     lambda r: {"scenarios": r.n_scenarios}),
    ("capfirm.planner", "plan", "planner.plan", None),
    ("capfirm.planner", "plan_deterministic", "planner.plan_deterministic", None),
    ("capfirm.planner", "build_planning_qp", "planner.build_planning_qp", None),
    ("capfirm.planner", "solve_miqp", "optim.solve_miqp", _miqp),
    ("capfirm.planner", "check_engagement", "domain.check_engagement", None),
    ("capfirm.controller", "oracle_control", "controller.oracle_control", None),
    ("capfirm.controller", "build_control_qp", "controller.build_control_qp", None),
    ("capfirm.controller", "solve_miqp", "optim.solve_miqp", _miqp),
    ("capfirm.controller", "day_economics", "controller.day_economics", None),
    ("capfirm.controller", "penalty_series", "domain.penalty_series", None),
    ("capfirm.controller", "net_remuneration_series", "domain.net_remuneration_series", None),
    ("capfirm.optim", "solve_qp", "optim.solve_qp", _qp),
    ("capfirm.optim", "repair_simultaneous_flow", "optim.repair_simultaneous_flow",
     lambda r: {"resolved": r.resolved}),
    ("capfirm.domain", "DispatchTrace.validate", "domain.validate", None),
)


@dataclass
class Span:
    name: str
    parent: int                  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        # span names whose attribute is absent, and "<name>.result" where the
        # result lacks a field the reader needs
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: str | None = None, info: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if info:
            span.info = info
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self.close(index, error=type(exc).__name__)
            raise
        self.close(index)

    def _wrap(self, fn, name: str, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            info = None
            if reader is not None:
                try:
                    info = reader(result)
                except AttributeError:
                    tracer.missing.add(name + ".result")
            tracer.close(index, info=info)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, reader in self.targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(original, name, reader))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()
