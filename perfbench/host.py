"""Host calibration: a fixed reference kernel sampled all through the run.

This 2-core host is shared.  Its speed switches between a fast and a slow
level, up to 2x apart for pure-Python code, and a level can last from a
quarter of a second to tens of seconds, so the switch often happens in
the middle of an op.  The clock therefore times a short kernel chunk from
a SIGALRM handler every `period` seconds, inside ops as well as between
them, all on the main thread.  An op's time, minus the handler time spent
inside it, times the mean kernel speed sampled during it, is the op's
work in reference units ("ref": kernel chunks), which the host's level
cancels out of.

The kernel has a pure-Python part and a numpy part, because the slow level
slows them by different factors; a workload weights the two parts to
resemble its own code.  The kernel never calls the package under test,
so a change to the package cannot move it.
"""

from __future__ import annotations

import io
import math
import signal
import time
from bisect import bisect_left, bisect_right
from statistics import median
from typing import List, Tuple

# seconds of one scalar chunk on the fast level of the 2-core host the
# baseline was measured on; converts reference units into seconds
SCALAR_CHUNK_S = 4.0e-4

_STR_VALUES = [0.37 * k + 1.0 / (k + 3.0) for k in range(60)]
_ARRAYS = []


def scalar_chunk() -> float:
    """A small RK4 march of psi'' + psi'/r + psi - sqrt(psi) = 0 kept as rows
    of tuples, then repr-formatting of floats: the interpreter work of the
    stepper, the analysis passes and the CSV writer."""

    def rhs(r: float, y: float, v: float) -> Tuple[float, float]:
        return v, -v / r - (y - math.copysign(math.sqrt(abs(y)), y))

    r, y, v, h = 0.5, 8.0, 0.0, 0.01
    rows = []
    for _ in range(120):
        k1 = rhs(r, y, v)
        k2 = rhs(r + 0.5 * h, y + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = rhs(r + 0.5 * h, y + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = rhs(r + h, y + h * k3[0], v + h * k3[1])
        y1 = y + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v1 = v + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        err = abs(y1 - y - h * v) + 1e-12
        h = min(0.02, max(0.005, h * min(2.0, max(0.5, 0.9 * (1e-4 / err)
                                                   ** 0.2))))
        r, y, v = r + h, y1, v1
        rows.append((r, y, v, math.hypot(y, v), math.atan2(v, y)))
    out = io.StringIO()
    for x in _STR_VALUES:
        out.write(f"{x!r},{x * 1.5!r},{x * x!r}\n")
    return rows[-1][0] + len(out.getvalue())


def numpy_chunk() -> float:
    """One trapezoid-style sweep over 2^16 points, the shape of a Picard or
    Banach sweep."""
    import numpy as np

    if not _ARRAYS:
        _ARRAYS.append(np.linspace(0.0, 8.0, 1 << 16))
    x = _ARRAYS[0]
    w = x * (x - np.sign(x) * np.sqrt(np.abs(x)))
    return float(np.cumsum(0.5 * (w[1:] + w[:-1]))[-1])


class HostClock:
    """Kernel samples taken on SIGALRM; converts main-thread intervals into
    (net seconds, reference units)."""

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        self.mix = (1.0, 0.0)
        self.with_numpy = False
        self.first = 0  # index of the first sample under the current mix
        self.starts: List[float] = []
        self.ends: List[float] = []
        # (scalar seconds, numpy seconds) of each sample
        self.parts: List[Tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        scalar_chunk()
        t1 = time.perf_counter()
        if self.with_numpy:
            numpy_chunk()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.parts.append((t1 - t0, t2 - t1))
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def set_mix(self, mix: Tuple[float, float], with_numpy: bool) -> None:
        """Default weights of the two kernel parts from the next sample on,
        and whether samples time the numpy part (any mix that weights it
        needs it)."""
        self.mix = mix
        self.with_numpy = with_numpy
        self.first = len(self.parts)

    def kernel(self, mix=None) -> List[float]:
        """Kernel seconds of the samples since set_mix, under mix."""
        w_s, w_n = mix or self.mix
        return [w_s * s + w_n * n for s, n in self.parts[self.first:]]

    def interval(self, t0: float, t1: float, mix=None,
                 min_samples: int = 5) -> Tuple[float, float]:
        """(seconds of [t0, t1] not spent in the handler, reference units).

        The speed comes from the samples that started inside the interval,
        or from the min_samples nearest to it when fewer did; mix defaults
        to the clock's.
        """
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        net = (t1 - t0) - sum(self.ends[j] - self.starts[j]
                              for j in range(lo, hi))
        first, n = self.first, len(self.parts)
        lo, hi = max(lo, first), max(hi, first)
        while hi - lo < min_samples and (lo > first or hi < n):
            if lo > first:
                lo -= 1
            if hi < n and hi - lo < min_samples:
                hi += 1
        w_s, w_n = mix or self.mix
        speed = sum(1.0 / (w_s * s + w_n * p)
                    for s, p in self.parts[lo:hi]) / max(1, hi - lo)
        return net, net * speed

    def kernel_median(self) -> float:
        return median(self.kernel())


class Timings:
    """Net seconds and reference units of each op of one pass."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.spans: List[Tuple[float, float]] = []
        self.net: List[float] = []
        self.ref: List[float] = []

    def run(self, inputs, op, after, mix_for) -> None:
        """Time op(x) for each input; after(x, result) runs untimed;
        mix_for(x) is the kernel mix that calibrates op x."""
        for x in inputs:
            t0 = time.perf_counter()
            result = op(x)
            t1 = time.perf_counter()
            self.spans.append((t0, t1))
            after(x, result)
        # convert once the samples around the last op exist
        for x, (t0, t1) in zip(inputs, self.spans):
            net, ref = self.clock.interval(t0, t1, mix_for(x))
            self.net.append(net)
            self.ref.append(ref)

    @property
    def wall(self) -> float:
        return sum(self.net)

    @property
    def wall_ref(self) -> float:
        return sum(self.ref)
