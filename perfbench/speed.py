"""Machine-speed calibration interleaved with a timed loop.

On the 2-vCPU Xeon virtual machine this benchmark was built on, speed
changes by up to 1.7x over tens of seconds to minutes (a fixed
pure-Python loop timed in 2 s windows spans 2.2-3.4 ms), so raw times
of two runs minutes apart differ by more than any bound worth setting.
Every EVERY seconds the timed loop runs a fixed ~1 ms kernel that does
not touch manyaccess: an interpreter loop, small numpy calls and a 2 MB
copy, like the trial pipeline.  An operation's normalized time is its
raw time times ref_s / (median of the NEAREST kernel samples taken
closest to it), i.e. its time on a machine that runs the kernel in ref_s
seconds.  NEAREST samples span about 4 s around a short operation, which
follows the host's swings without the noise of single samples.  A
change to manyaccess moves raw and normalized times alike; a change of
host speed moves mostly the raw ones.
"""

import bisect
import math
import statistics
import time

import numpy as np

EVERY = 0.25
NEAREST = 16

_SMALL = np.arange(20000, dtype=float)
_BIG = np.arange(250000, dtype=float)


def kernel_seconds() -> float:
    """Median of three timings of the calibration kernel."""
    def once():
        t0 = time.perf_counter()
        s = 0
        for i in range(3000):
            s += i * i % 7
        for _ in range(20):
            _SMALL.sum()
            np.sqrt(_SMALL)
        _BIG.copy()
        return time.perf_counter() - t0

    return sorted(once() for _ in range(3))[1]


class Speed:
    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.times: list[float] = []
        self.kernel: list[float] = []
        self._due = -math.inf

    def tick(self) -> None:
        """Take a calibration sample if one is due."""
        now = time.perf_counter()
        if now >= self._due:
            self.kernel.append(kernel_seconds())
            self.times.append(now)
            self._due = now + EVERY

    def factor(self, start: float, seconds: float) -> float:
        """Multiplier that turns the raw time of an operation into its normalized time."""
        mid = start + seconds / 2.0
        i = bisect.bisect_left(self.times, mid)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.times)):
            if lo > 0 and (hi == len(self.times) or mid - self.times[lo - 1] <= self.times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return self.ref_s / statistics.median(self.kernel[lo:hi])

    def median_factor(self) -> float:
        return self.ref_s / statistics.median(self.kernel)
