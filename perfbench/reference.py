"""The machine's speed at each moment of a run, from fixed reference kernels.

The benchmark shares a host whose speed drifts by 20-45% over seconds to
minutes, as other tenants load it; the slowdown reaches CPU time as well as
wall time. A workload process runs its reference kernel every
``INTERVAL_S`` between ops. A kernel is a sum of parts from ``PARTS``, chosen
per workload to resemble what its ops spend their time on; no part uses
gmaxent, so a change to the program does not change a kernel's time.
``Speedometer.scale`` turns a time measured at some moment into the time it
would have taken at reference speed: it multiplies by the kernel's reference
time over its median time in the nearest ``WINDOW`` runs on each side.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW = 5

_rng = np.random.default_rng(12345)
_SYMMETRIC = _rng.standard_normal((48, 48))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T
_SMALL = _rng.standard_normal(2000)
_LARGE = _rng.standard_normal(500_000)  # 4 MB, past the last-level cache share
_LARGE_OUT = np.empty_like(_LARGE)
_STACK = _rng.standard_normal((256, 32, 32)) + 1j * _rng.standard_normal((256, 32, 32))  # 4 MB
_WEIGHTS = _rng.standard_normal(256)


def _interpreter():
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def _small_arrays():
    x = _SMALL
    for _ in range(100):
        x = np.sqrt(np.abs(x) + 1.0) * 0.5


def _eigh():
    for _ in range(5):
        np.linalg.eigh(_SYMMETRIC)


def _stream():
    for _ in range(3):
        np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)


def _einsum():
    np.einsum("k,kij->ij", _WEIGHTS, _STACK)


# name -> (function, its time in s at reference speed). The reference times
# were measured in a quiet spell on a 2-vCPU Intel Xeon VM with numpy 2.4 and
# one OpenBLAS thread; they fix the unit that scaled times are expressed in.
PARTS = {
    "interpreter": (_interpreter, 0.0004),
    "small_arrays": (_small_arrays, 0.0008),
    "eigh": (_eigh, 0.0017),
    "stream": (_stream, 0.0019),
    "einsum": (_einsum, 0.0012),
}


class Speedometer:
    """Kernel times, with the moments they were taken."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[name][0] for name in parts]
        self.reference_s = sum(PARTS[name][1] for name in parts)
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._last = -float("inf")

    def tick(self):
        """Run the kernel if ``INTERVAL_S`` has passed since its last run."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            for part in self.parts:
                part()
            self._last = time.perf_counter()
            self.kernel_s.append(self._last - now)
            self.at.append(now)

    def factor(self, moment: float) -> float:
        """Reference time over the median kernel time around ``moment``."""
        j = bisect.bisect(self.at, moment)
        return self.reference_s / statistics.median(self.kernel_s[max(0, j - WINDOW):j + WINDOW])

    def scale(self, moments: list[float], durations: list[float]) -> list[float]:
        return [d * self.factor(t) for t, d in zip(moments, durations)]
