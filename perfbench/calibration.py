"""A fixed kernel that measures how fast the host runs, in no cyclewalk code.

The host's speed drifts by up to 1.8x over seconds to minutes, with load
from outside the benchmark.  The runner times this kernel right before and
right after each child, on the same CPU, and scales the child's times by
``REFERENCE_S`` over the kernel's time, which removes most of the drift.

The kernel mixes what the workloads do, in about equal shares: interpreter
loops, dict lookups over a heap larger than the caches, float formatting,
and numpy complex exps on small and on large arrays.  Outside load slows
these parts by different factors, so no one part alone follows the
workloads as well as the mix.
"""

from __future__ import annotations

import random
import time

import numpy as np

# The fastest kernel time seen on a 2-core Xeon VM at 2.1 GHz.  Scaled times
# are seconds at that host speed.
REFERENCE_S = 0.030


class Calibration:
    def __init__(self) -> None:
        self.small = np.linspace(0.0, 50.0, 50_000)
        self.large = np.linspace(0.0, 50.0, 500_000)
        self.records = [{"x": float(i), "s": str(i)} for i in range(50_000)]
        random.Random(0).shuffle(self.records)

    def seconds(self) -> float:
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        total = 0.0
        for i in range(30_000):
            total += (i % 7) * 0.5
        for record in self.records:
            total += record["x"]
        ",".join(repr(v) for v in self.small[:10_000].tolist())
        x = self.small
        for _ in range(4):
            x = np.exp(1j * x).real
        np.exp(1j * self.large).real
        return time.perf_counter() - start
