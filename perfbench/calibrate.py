"""Machine-speed calibration for the end-to-end times.

On the shared 2-vCPU virtual machine (Intel Xeon, OpenBLAS 0.3.31) where the
first baseline was recorded, the same code runs up to 30 % slower for minutes
at a time (contention for the shared caches and memory); that drift, not the
program, set the run-to-run spread of raw wall times (quartile spread 0.12 to
0.28 over ten runs).  A fixed kernel with the sampler's mix (passes over a
cache-sized tensor, small Cholesky factorizations, Python-level loops) is
timed between the benchmark's operations, and each end-to-end time is
rescaled by

    speed = REFERENCE_S / median(kernel times in this run)

so it reads as seconds on a machine where the kernel takes REFERENCE_S.  On
a 20-second window this cut the spread of a timed rMTF fit from 0.12 to 0.05.

The kernel uses only numpy and never calls mtfact.  Changing it or
REFERENCE_S rescales every recorded number, so neither may change without a
new baseline.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.022   # kernel median on the machine of the first baseline
_SHAPE = (300, 30, 50)  # an (N, L, D) residual tensor at paper scale, 3.6 MB


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(_SHAPE)
        self._z = rng.standard_normal((_SHAPE[0], 15))
        self._v = rng.standard_normal((_SHAPE[2], 15))
        self.times: list[float] = []

    def _kernel(self) -> float:
        x = self._x.copy()
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(self._z.shape[1]):
            proj = np.einsum("nld,n->ld", x, self._z[:, k])
            x -= self._z[:, k, None, None] * np.outer(np.ones(_SHAPE[1]), self._v[:, k])[None]
            np.linalg.cholesky(self._z.T @ self._z + np.eye(self._z.shape[1]))
            for j in range(300):
                acc += float(proj[j % _SHAPE[1], j % _SHAPE[2]])
        return time.perf_counter() - t0

    def sample(self, n: int = 3):
        """Time the kernel ``n`` times; call between timed operations."""
        self.times += [self._kernel() for _ in range(n)]

    def speed(self) -> float:
        """Machine speed relative to the reference (above 1 is faster)."""
        return REFERENCE_S / statistics.median(self.times)
