"""Host-speed reference: a fixed numpy and Python kernel that shares no code
with bardina2d, timed by the benchmark between its child processes.

On a small shared VM the speed of a vCPU drifts by up to 2x for seconds to
minutes at a time, as other tenants of the machine come and go, and every
process slows alike: CPU time tracks wall time, so neither can see it.
Scaling a child's wall time by NOMINAL_S over the kernel time measured just
before and just after it cancels most of that drift, and keeps the result in
seconds: the time the command would take with the kernel at NOMINAL_S.
"""

import statistics
import time

import numpy as np

# Kernel time on an idle 2.1 GHz Xeon vCPU (2-core VM, 2 MB L2 per core,
# numpy 2.4, one thread).  It fixes only the unit of corrected times; parent
# and change are always measured against the same value.
NOMINAL_S = 0.07

REPEATS = 5


class Reference:
    """The kernel mixes what the workloads do: FFTs of small grids (torus),
    a matrix-vector product over an 11.5 MB table that misses L2 (L=85
    Legendre tables), many small matmuls (per-m loop overhead) and plain
    Python bytecode."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grids = rng.standard_normal((4, 96, 96))
        self.table = rng.standard_normal((1200, 1200))
        self.vec = rng.standard_normal(1200)
        # orthogonal, so repeated products neither grow nor underflow
        self.small = np.linalg.qr(rng.standard_normal((60, 60)))[0]

    def _kernel(self):
        acc = 0.0
        for _ in range(12):
            acc += np.fft.ifft2(np.fft.fft2(self.grids)).real[0, 0, 0]
        for _ in range(40):
            acc += (self.table @ self.vec)[0]
        x = self.small
        for _ in range(2000):
            x = x @ self.small
        acc += x[0, 0] + sum(i % 7 for i in range(250000))
        return acc

    def seconds(self):
        """Median time of REPEATS kernel runs: the host's current speed, with
        sub-second spikes filtered out."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
