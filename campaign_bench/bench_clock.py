"""Host timings scaled to a fixed machine speed.

On a shared host the speed of one CPU drifts by up to 2x over tens of
seconds. A single pass measures whatever state the CPU happens to be in.
The benchmark therefore times a fixed pure-Python kernel alongside each
measurement. It rescales the measured seconds to the speed at which
the kernel takes :data:`KERNEL_REF_S`:

    scaled_s = measured_s * mean(KERNEL_REF_S / kernel_s)

Long regions (cold passes) sample the kernel from a ``SIGALRM`` handler
every :data:`SAMPLE_PERIOD_S`, in the same thread. The handler touches
no program state, and its own time is subtracted from the region.
Set-up processes run the kernel right after their set-up, and the
median of their host seconds is scaled by the speed over all of those
runs. Traced passes run it just before and after, so no span holds
kernel time. The raw seconds are always reported too.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

#: kernel duration at the reference speed: the median on the 2-core
#: host the benchmark was written on, so scaled and raw seconds agree
#: there on average
KERNEL_REF_S = 0.0033

#: seconds between kernel samples inside a timed region
SAMPLE_PERIOD_S = 0.2

#: share of samples dropped at each end before averaging
TRIM = 0.1


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1
        self.b = 2

    def step(self, x: int) -> int:
        return self.a + x if x & 1 else self.b - x


def kernel(n: int = 15000) -> int:
    """Fixed interpreter work: arithmetic, attribute access and calls."""
    slot = _Slot()
    acc = 0
    for i in range(n):
        acc += i * i % 7
        acc = slot.step(i) + acc
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples: List[float]) -> float:
    """Trimmed mean of ``KERNEL_REF_S / sample`` (1.0 at reference
    speed, below 1 when the host runs slower)."""
    ratios = sorted(KERNEL_REF_S / s for s in samples)
    k = int(len(ratios) * TRIM)
    return statistics.mean(ratios[k:len(ratios) - k] or ratios)


def kernel_samples(runs: int = 5) -> List[float]:
    return [time_kernel() for _ in range(runs)]


class ScaledTimer:
    """Time a region while sampling the kernel inside it.

    ``raw_s`` is the region's host seconds without the kernel's own
    time; ``scaled_s`` rescales it by the speed sampled inside (or, for
    a region too short to hold two samples, right after it).
    """

    def __init__(self, period_s: float = SAMPLE_PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._spent = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        spent = time.perf_counter() - start
        self.samples.append(spent)
        self._spent += spent

    def __enter__(self) -> "ScaledTimer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = end - self._start - self._spent
        if len(self.samples) < 2:
            self.samples += kernel_samples()
        self.scaled_s = self.raw_s * speed_factor(self.samples)
        return None
