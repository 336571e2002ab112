"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload day_s20 --seed 1 --seconds 30 --trace 0

The run is a closed loop: one process, one caller, ops back to back until
``--seconds`` have passed. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs every op twice, untraced and traced in
alternating order, and prints the per-layer metrics of the traced runs.
Informational lines (manifest, failure records, check violations, spans,
the op timings as measured) come first; the last line of standard output is
one JSON object.

``--seed`` picks one of the seasons screened by ``screen.py`` and the order
of its ops; the ops the package is known to fail on are not attempted (see
``screened.json``).

The timings (``setup_s``, ``ops_per_s``, ``op_p50_s``, ``op_tail_s``) are
divided by the host slowdown that ``calibrate`` measures between ops, so they
read in seconds of a host running its reference kernel in
``calibrate.NOMINAL_S``. On a shared host the slowdown drifts by half or
more within an hour, and import time drifts with it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("day_s20", "sweep_det", "forecast_s100")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# An op still running after this long (about 7 paper-scale days on the
# reference host) is stopped and recorded as a failure. Some days send
# branch-and-bound through hundreds of nodes at about 1 s each; without a
# limit one of them would hold a run for many minutes.
OP_LIMIT_S = 10.0

# Imports one set-up sample pays; run in fresh interpreters for the repeats.
_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> list[float]:
    """Import time of the package and the benchmark, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC_DIR), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def latency_stats(durations: list[float], ok: list[bool]) -> dict:
    """Median and tail seconds per op; a failed op counts as infinitely slow.

    The tail is the highest percentile with at least ``TAIL_BEYOND`` ops
    beyond it. A statistic that lands on a failed op falls back to the
    slowest measured op.
    """
    lat = sorted(d if good else math.inf for d, good in zip(durations, ok))
    n = len(lat)
    slowest = max(durations)
    rank = max(n - TAIL_BEYOND, 1)
    p50 = statistics.median(lat)
    tail = lat[rank - 1]
    return {"n": n, "p50": p50 if math.isfinite(p50) else slowest,
            "tail": tail if math.isfinite(tail) else slowest,
            "tail_pct": 100.0 * rank / n, "beyond": n - rank}


class OpTimeout(BaseException):
    """Raised inside an op that exceeds ``OP_LIMIT_S``.

    A BaseException, like KeyboardInterrupt, so that no handler for ordinary
    errors inside the package can swallow it.
    """


@contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise OpTimeout(f"op still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """Times ops of one workload and keeps failures and check results."""

    def __init__(self, workload, workloads_mod):
        self.workload = workload
        self.w = workloads_mod
        self.checks = workloads_mod.Checks()
        self.failures: list[dict] = []

    def op(self, spec, tracer=None) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            with deadline(OP_LIMIT_S):
                if tracer is None:
                    outcome = self.workload.run(spec)
                else:
                    with tracer.installed(), tracer.span("op"):
                        outcome = self.workload.run(spec)
        except (*self.w.FAILURES, OpTimeout) as exc:
            elapsed = time.perf_counter() - start
            self.failures.append(self.w.failure_record(self.workload, spec, exc))
            return elapsed, False
        elapsed = time.perf_counter() - start
        self.workload.check(spec, outcome, self.checks)
        return elapsed, True


def per_layer(tracer, n_ops: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced ops, normalised per op where a sum."""
    by = defaultdict(list)
    for span in tracer.spans:
        by[span.name].append(span)

    def total(*names):
        return sum(s.duration for n in names for s in by[n])

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def errors(name, kinds=None):
        return sum(1 for s in by[name] if s.error and (kinds is None or s.error in kinds))

    qp = by["optim.solve_qp"]
    infeasible = [s for s in qp if s.info.get("status") == "infeasible"]
    solved = [s for s in qp if s.info and s.info.get("status") != "infeasible"]
    ops = by["op"]
    attributed = sum(s.duration for s in tracer.spans
                     if s.parent >= 0 and tracer.spans[s.parent].name == "op")
    planner_self = sum(s.self_s for n, spans in by.items()
                       if n.startswith("planner.") and n != "planner.build_planning_qp"
                       for s in spans)
    domain_self = sum(s.self_s for n, spans in by.items()
                      if n.startswith("domain.") for s in spans)
    per_op = 1.0 / n_ops
    table = [
        # name, unit, spans it needs, value
        ("optim.qp_solves", "count/op", ("optim.solve_qp",), len(qp) * per_op),
        ("optim.iterations", "count/op", ("optim.solve_qp.result",),
         info_sum("optim.solve_qp", "iterations") * per_op),
        ("optim.s_per_iteration", "s", ("optim.solve_qp.result",),
         ratio(sum(s.duration for s in solved),
               sum(s.info["iterations"] for s in solved))),
        ("optim.qp_s", "s/op", ("optim.solve_qp",), total("optim.solve_qp") * per_op),
        ("optim.miqp_s", "s/op", ("optim.solve_miqp",), total("optim.solve_miqp") * per_op),
        ("optim.bnb_nodes", "count/op", ("optim.solve_miqp.result",),
         info_sum("optim.solve_miqp", "nodes") * per_op),
        ("optim.nodes_per_miqp", "count", ("optim.solve_miqp.result",),
         ratio(info_sum("optim.solve_miqp", "nodes"),
               sum(1 for s in by["optim.solve_miqp"] if "nodes" in s.info))),
        ("optim.infeasible_nodes", "count/op", ("optim.solve_qp.result",),
         len(infeasible) * per_op),
        ("optim.infeasible_node_s", "s/op", ("optim.solve_qp.result",),
         sum(s.duration for s in infeasible) * per_op),
        ("optim.repair_calls", "count/op", ("optim.repair_simultaneous_flow",),
         len(by["optim.repair_simultaneous_flow"]) * per_op),
        ("optim.repair_resolved_ratio", "ratio", ("optim.repair_simultaneous_flow.result",),
         ratio(info_sum("optim.repair_simultaneous_flow", "resolved"),
               len(by["optim.repair_simultaneous_flow"]))),
        ("optim.repaired_incumbents", "count/op", ("optim.solve_miqp.result",),
         info_sum("optim.solve_miqp", "repaired") * per_op),
        ("optim.solver_errors", "count/op", ("optim.solve_miqp",),
         errors("optim.solve_miqp", ("SolverError",)) * per_op),
        ("planner.build_s", "s/op", ("planner.build_planning_qp",),
         total("planner.build_planning_qp") * per_op),
        ("planner.plan_self_s", "s/op", ("planner.plan",), planner_self * per_op),
        ("planner.failures", "count/op", ("planner.plan",), errors("planner.plan") * per_op),
        ("controller.build_s", "s/op", ("controller.build_control_qp",),
         total("controller.build_control_qp") * per_op),
        ("controller.control_self_s", "s/op", ("controller.oracle_control",),
         sum(s.self_s for s in by["controller.oracle_control"]) * per_op),
        ("controller.economics_s", "s/op", ("controller.day_economics",),
         total("controller.day_economics") * per_op),
        ("controller.failures", "count/op", ("controller.oracle_control",),
         errors("controller.oracle_control") * per_op),
        ("domain.s", "s/op", ("domain.validate",), domain_self * per_op),
        ("pvusa.rolling_fit_s", "s/op", ("pvusa.fit_pvusa",), total("pvusa.fit_pvusa") * per_op),
        ("pvusa.windows", "count/op", ("pvusa.fit_pvusa.result",),
         info_sum("pvusa.fit_pvusa", "windows") * per_op),
        ("pvusa.s_per_window", "s", ("pvusa.fit_pvusa.result",),
         ratio(total("pvusa.fit_pvusa"), info_sum("pvusa.fit_pvusa", "windows"))),
        ("pvusa.pooled_fit_s", "s/op", ("pvusa.steady_state_fit",),
         total("pvusa.steady_state_fit") * per_op),
        ("scenarios.copula_fit_s", "s/op", ("scenarios.fit_copula",),
         total("scenarios.fit_copula") * per_op),
        ("scenarios.sample_s", "s/op", ("scenarios.sample_scenarios",),
         total("scenarios.sample_scenarios") * per_op),
        ("scenarios.s_per_scenario", "s", ("scenarios.sample_scenarios.result",),
         ratio(total("scenarios.sample_scenarios"),
               info_sum("scenarios.sample_scenarios", "scenarios"))),
        ("trace.ops", "count", (), n_ops),
        ("trace.overhead_ratio", "ratio", (), traced_s / untraced_s - 1.0),
        ("trace.attributed_ratio", "ratio", (),
         ratio(attributed, sum(s.duration for s in ops))),
    ]
    def absent(needs):
        return any(n in tracer.missing or n.removesuffix(".result") in tracer.missing
                   for n in needs)

    return {name: {"value": value, "unit": unit}
            for name, unit, needs, value in table if not absent(needs)}


def span_summary(tracer) -> list[str]:
    calls, dur, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        dur[span.name] += span.duration
        self_s[span.name] += span.self_s
    return [f"span: {name} calls={calls[name]} total_s={dur[name]:.6f} "
            f"self_s={self_s[name]:.6f}" for name in sorted(calls)]


def manifest(args, workload, setup, import_samples, gen_samples) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload, "op": workload.op_name, "seed": args.seed,
        "season": workload.season.seed, "excluded_ops": len(workload.excluded),
        "seconds": args.seconds, "trace": args.trace,
        "sizes": setup,
        "import_s": import_samples, "generate_s": gen_samples,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "capfirm" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    for path in (str(BENCH_DIR), str(SRC_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import workloads
    own_import_s = time.perf_counter() - start
    import calibrate
    import season
    import tracer as tracing

    import_samples = [own_import_s] + import_seconds()
    gen_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.make(args.workload, args.seed)
        ops = workload.ops()
        first = next(ops)
        gen_samples.append(time.perf_counter() - start)
    setup_s = statistics.median(import_samples) + statistics.median(gen_samples)

    runner = Runner(workload, workloads)
    durations, ok = [], []
    tracer = tracing.Tracer()
    speed = calibrate.Calibration()
    speed.warm()
    warm_s = speed.spent_s
    traced_s = untraced_s = 0.0
    spec = first
    begin = time.perf_counter()
    while True:
        if args.trace:
            # each op runs untraced and traced, alternating which goes first
            order = (None, tracer) if len(durations) % 2 == 0 else (tracer, None)
            for with_tracer in order:
                elapsed, good = runner.op(spec, with_tracer)
                if with_tracer is None:
                    untraced_s += elapsed
                else:
                    traced_s += elapsed
        else:
            elapsed, good = runner.op(spec)
            speed.after_op(elapsed)
        durations.append(elapsed)
        ok.append(good)
        if time.perf_counter() - begin >= args.seconds:
            break
        spec = next(ops)
    wall = time.perf_counter() - begin - (speed.spent_s - warm_s)
    runner.checks.finish()

    sizes = {"periods": season.PERIODS, "days": season.N_DAYS,
             "history_days": season.HISTORY_DAYS,
             "pv_capacity_kw": season.PV_CAPACITY_KW,
             "scenarios": {"day_s20": workloads.DAY_SCENARIOS,
                           "forecast_s100": workloads.FORECAST_SCENARIOS},
             "ratios": workloads.RATIOS, "prices_eur_mwh": workloads.PRICES_EUR_MWH}
    print("manifest: " + json.dumps(manifest(args, workload, sizes, import_samples,
                                             gen_samples)))
    for record in runner.failures:
        print("failure: " + json.dumps(record))
    for line in runner.checks.violations:
        print("check failed: " + line)

    attempted = len(durations) * (2 if args.trace else 1)
    failed = len(runner.failures)
    if args.trace:
        for line in span_summary(tracer):
            print(line)
        metrics = per_layer(tracer, len(durations), traced_s, untraced_s)
    else:
        lat = latency_stats(durations, ok)
        print(f"ops ({workload.op_name}): {lat['n']} attempted, {sum(ok)} succeeded "
              f"in {wall:.3f} s; "
              f"op_p50_s over {lat['n']} ops; op_tail_s at p{lat['tail_pct']:.1f} "
              f"with {lat['beyond']} ops beyond it")
        slow = speed.slowdown
        print(f"speed: slowdown {slow:.4f} from {len(speed.samples)} reference samples; "
              f"as timed: setup_s {setup_s:.6g} ops_per_s {sum(ok) / wall:.6g} "
              f"op_p50_s {lat['p50']:.6g} op_tail_s {lat['tail']:.6g}")
        metrics = {
            "setup_s": {"value": setup_s / slow, "unit": "s"},
            "ops_per_s": {"value": sum(ok) / wall * slow, "unit": "1/s"},
            "op_p50_s": {"value": lat["p50"] / slow, "unit": "s"},
            "op_tail_s": {"value": lat["tail"] / slow, "unit": "s"},
            "success_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    correct = not runner.checks.violations
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
