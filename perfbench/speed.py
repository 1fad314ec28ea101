"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared host the same work can take from 1.0x to 2.0x its fastest time;
the state flips within seconds and drifts over minutes. The process cannot
see it: CPU time tracks wall time and no steal time is reported (the core
itself runs slower, as when another tenant's thread shares it). Raw wall
times of identical runs then spread by about 30%, more than any regression
bound could allow.

So a fixed probe computation, small numpy calls from a Python loop like
geoctrl's own hot paths, is timed every INTERVAL_S while the measured work
runs (SIGALRM; the handler runs between bytecodes of the main thread and
touches nothing of the program). Measured time is rescaled by the mean of
PROBE_REF_S / probe time over the samples taken during it: a figure reads as
the time the work would take at the reference speed. The probing time
itself is subtracted from the measured time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# probe time at the reference speed: the fast state of the 2-core Xeon (KVM)
# machine the baseline was measured on
PROBE_REF_S = 170e-6
INTERVAL_S = 0.02

_X = np.ones(3)


def probe() -> float:
    """Seconds one fixed small computation takes right now."""
    t0 = time.perf_counter()
    for _ in range(100):
        np.sin(_X).sum()
    return time.perf_counter() - t0


def rate_now(samples: int = 20) -> tuple[float, float]:
    """(mean PROBE_REF_S / probe time, seconds spent probing)."""
    t0 = time.perf_counter()
    rate = float(np.mean([PROBE_REF_S / probe() for _ in range(samples)]))
    return rate, time.perf_counter() - t0


class Speedometer:
    """Samples the probe every INTERVAL_S while active (a context manager)."""

    def __init__(self):
        self.rates: list[float] = []  # PROBE_REF_S / probe time, per sample
        self.busy = 0.0  # seconds spent probing

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.rates.append(PROBE_REF_S / probe())
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[int, float]:
        """Sample now, just before a timed region starts."""
        self._sample()
        return len(self.rates) - 1, self.busy

    def settle(self, seconds: float, start: tuple[int, float]) -> tuple[float, float]:
        """Right after a timed region of `seconds` that began at `start`:
        (seconds without the probing inside it, reference-speed seconds)."""
        first, busy0 = start
        seconds -= self.busy - busy0
        self._sample()
        return seconds, seconds * float(np.mean(self.rates[first:]))
