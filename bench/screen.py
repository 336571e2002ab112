"""Find the ops of each workload that the package fails on, and exclude them.

Usage, from the root of a checkout::

    python3 bench/screen.py --seasons 1 2 3 4
    python3 bench/screen.py --seasons 1 2 3 4 --workload day_s20

Runs every distinct op of each named workload (default: all) once on each
season, with the op time limit of ``run.py``, and writes ``screened.json``:
the seasons a benchmark run draws from and, per workload, one record per op
that raised one of the package's failure types or took longer than
``SLOW_S``. A run never attempts those ops, so two runs of the same code
attempt only ops that complete. The records name the day, case, error and
message: they are the package's known failures on these inputs. Screen
again after a change to the package or to the generator, so that ops the
package now completes are measured again. Entries of workloads not named
are kept when the seasons are unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for _path in (str(BENCH_DIR), str(BENCH_DIR.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402  (no numpy yet, so the thread settings below still apply)

# An op this slow on the screening host could pass ``run.OP_LIMIT_S`` on a
# slower one, so it is excluded as well.
SLOW_S = 5.0


def distinct_ops(workload):
    """The op sequence up to its first repeat: every op the workload has."""
    seen = {}
    for spec in workload.all_ops():
        if spec in seen:
            return list(seen)
        seen[spec] = None


def screen(name: str, season_seed: int, workloads) -> list[dict]:
    workload = workloads.WORKLOADS[name](
        workloads.gen.make_season(season_seed), seed=0)
    runner = run.Runner(workload, workloads)
    records = []
    for spec in distinct_ops(workload):
        elapsed, good = runner.op(spec)
        if good and elapsed <= SLOW_S:
            continue
        error, message = ((runner.failures[-1]["error"], runner.failures[-1]["message"])
                          if not good else ("slow", f"op took {elapsed:.2f} s"))
        records.append({"season": season_seed, **spec.record(), "error": error,
                        "message": message, "seconds": round(elapsed, 3)})
        print(json.dumps(records[-1]), flush=True)
    if runner.checks.violations:
        raise SystemExit("check failed while screening: " + runner.checks.violations[0])
    return records


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seasons", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOAD_NAMES,
                        default=list(run.WORKLOAD_NAMES))
    args = parser.parse_args(argv)

    excluded = {}
    for name in args.workload:
        excluded[name] = [r for seed in args.seasons
                          for r in screen(name, seed, workloads)]
    # read only now: another screening process may have written meanwhile
    path = workloads.SCREENED
    old = workloads.load_screen(path) if path.is_file() else None
    if old is not None and old["seasons"] == args.seasons:
        excluded = {**old["excluded"], **excluded}
    missing = set(run.WORKLOAD_NAMES) - set(excluded)
    result = {"seasons": args.seasons, "slow_s": SLOW_S,
              "op_limit_s": run.OP_LIMIT_S,
              "excluded": {n: excluded[n] for n in run.WORKLOAD_NAMES if n in excluded}}
    path.write_text(json.dumps(result, indent=1) + "\n")
    if missing:
        print(f"not yet screened: {', '.join(sorted(missing))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
