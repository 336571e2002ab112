"""Machine-speed reference: a fixed kernel timed between ops.

On a shared host the same op can take 15-25 % longer for minutes at a time
because other tenants load the caches, memory bus and sibling threads. The
reference kernel does the kinds of work the package does (a sparse LU
factorization and solve, small dense least-squares fits in a Python loop,
list building) on fixed data that does not depend on the package. Its mean
duration over a run, divided by ``NOMINAL_S``, is the run's slowdown factor;
time metrics are reported divided by it, that is in seconds of a host on
which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Kernel time on an Intel Xeon at 2.1 GHz in its fast state, numpy 2.4.6,
# scipy 1.17.1, one BLAS thread.
NOMINAL_S = 0.006
EVERY_S = 0.5           # op time between two samples, about 3 % overhead
WARM_SAMPLES = 3


class Calibration:
    def __init__(self):
        n = 40
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._k = (sp.kron(lap, eye) + sp.kron(eye, lap) + 1e-3 * sp.eye(n * n)).tocsc()
        rng = np.random.default_rng(0)
        self._rhs = rng.standard_normal(n * n)
        self._design = rng.standard_normal((48, 3))
        self._target = rng.standard_normal(48)
        self.samples: list[float] = []
        self.spent_s = 0.0          # wall time spent sampling
        self._since = 0.0

    def _kernel(self) -> float:
        x = spla.splu(self._k).solve(self._rhs)
        acc = float(x[0])
        for i in range(150):
            beta = np.linalg.lstsq(self._design, self._target + i, rcond=None)[0]
            acc += float(beta[0])
        rows = []
        for i in range(3000):
            rows.extend((i, i + 1))
        return acc + len(rows)

    def sample(self) -> None:
        """Time the kernel once its data are back in cache after an op."""
        begin = time.perf_counter()
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += end - begin
        self._since = 0.0

    def warm(self) -> None:
        for _ in range(WARM_SAMPLES):
            self.sample()

    def after_op(self, op_s: float) -> None:
        """Take a sample once ``EVERY_S`` of op time has passed since the last."""
        self._since += op_s
        if self._since >= EVERY_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        # the mean, not the median: the host switches between a fast and a
        # slow state, and op time grows with the share of time spent slow
        return statistics.fmean(self.samples) / NOMINAL_S
