"""A speed probe that runs on the measuring thread, between the program's
own bytecodes.

The machine this benchmark was written on runs the same Python code at
speeds that differ by up to 2x, in phases that last from seconds to
minutes (NOTES.md, "Steadiness").  Raw wall times then measure the host
as much as confalg.  While a ``Probe`` is active, a timer signal runs a
small fixed kernel every ``INTERVAL_S`` seconds and records how long it
took.  A measured span is reported twice: as raw wall time minus the time
spent in the probe, and scaled to the reference speed, at which the kernel
takes ``REFERENCE_S`` seconds.  The kernel does exact rational arithmetic
on dictionaries keyed by exponent tuples, the kind of work confalg's
``poly`` layer does, but it uses none of confalg's code, so a change to
confalg cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

_clock = time.perf_counter

#: seconds between two runs of the kernel
INTERVAL_S = 0.01
#: the kernel's time at the reference speed: about its median time, run
#: from the timer, on a 2-core 2.1 GHz Xeon VM under Python 3.11.7
REFERENCE_S = 3.5e-4
#: fewest kernel runs a speed estimate rests on
MIN_SAMPLES = 9

_LEFT = [((i, j), Fraction(i + 1, j + 2)) for i in range(3) for j in range(3)]
_RIGHT = [((i, j), Fraction(j - 3, i + 1)) for i in range(3) for j in range(3)]


def kernel() -> dict:
    """A product of two sparse polynomials with rational coefficients."""
    out: dict = {}
    for (a, b), x in _LEFT:
        for (c, d), y in _RIGHT:
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


class Probe:
    """``with Probe() as probe:`` runs the kernel on a timer; ``probe.mark()``
    and ``probe.since(mark)`` measure a span inside the block."""

    def __init__(self) -> None:
        #: duration of every kernel run, in order
        self.runs: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = _clock()
        kernel()
        took = _clock() - t0
        self.runs.append(took)
        self.spent += took

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def warm_up(self) -> None:
        """Spin until the kernel has run ``MIN_SAMPLES`` times."""
        while len(self.runs) < MIN_SAMPLES:
            pass

    def mark(self) -> tuple[float, float, int]:
        return _clock(), self.spent, len(self.runs)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """Seconds since ``mark`` without the probe's own time: raw, and
        scaled to the reference speed.

        The speed is the median kernel time over the span, or over the last
        ``MIN_SAMPLES`` kernel runs when the span held fewer.
        """
        now = _clock()
        start, spent, first = mark
        raw = now - start - (self.spent - spent)
        window = self.runs[min(first, len(self.runs) - MIN_SAMPLES):]
        if not window:
            raise RuntimeError("the probe has not run yet")
        return raw, raw * REFERENCE_S / statistics.median(window)
