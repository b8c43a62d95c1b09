"""How fast the machine ran during a run, so that reported times can be
scaled to one reference speed.

The speed of a shared machine drifts by up to a third within minutes, and
every measured time drifts with it.  A probe measures that drift: a fixed
pure-Python loop over a dict keyed by (component, exponent tuple), the same
kind of work as the engine's inner loop but no cmreg code, so a change to
cmreg cannot move it.  While instances are timed, a SIGALRM timer runs the
probe every PROBE_EVERY_S, including in the middle of a long instance.  The
probe's own time is subtracted from the instance it interrupted.  `factor`
is (median probe time / PROBE_NOMINAL_S) ** SENSITIVITY: above 1 the machine
ran slow.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_EVERY_S = 0.25
PROBE_REPS = 12
PROBE_NOMINAL_S = 0.004  # the probe's time at the reference speed
REFERENCE_REPS = 50 * PROBE_REPS  # the longer loop timed at the start and end of a run
# The engine's time swings less than the probe's when the machine's speed
# changes.  Over 70 interleaved pairs of a fixed audit chunk and the probe,
# the slope of log engine time on log probe time was 0.5, and the probe's own
# noise biases that slope low; in 5-run rounds the run-to-run spreads were
# lowest with exponents between 0.5 and 1.
SENSITIVITY = 0.75

_TERMS = {
    (c, (i, j, 3 - i - j)): (7 * i + 3 * j + c + 1) % 101
    for c in range(3)
    for i in range(4)
    for j in range(4 - i)
}


def probe_loop(reps: int) -> None:
    """target += k * x^mono * src, mod 101, the shape of elt_add_scaled."""
    for _ in range(reps):
        target: dict = {}
        for k in range(6):
            mono = (k % 3, k // 3, 1)
            for (c, m), val in _TERMS.items():
                t = (c, tuple(x + y for x, y in zip(m, mono)))
                nv = (target.get(t, 0) + val * (k + 1)) % 101
                if nv:
                    target[t] = nv
                elif t in target:
                    del target[t]


def reference_loop() -> tuple[float, float]:
    """The fixed reference loop, timed as (wall s, cpu s)."""
    w0, c0 = time.perf_counter(), time.process_time()
    probe_loop(REFERENCE_REPS)
    return time.perf_counter() - w0, time.process_time() - c0


class Speedometer:
    """Probe samples taken while the context is entered (may be re-entered)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent probing, to subtract from instance times
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop(PROBE_REPS)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        if not self.samples:  # a run shorter than one probe interval
            return 1.0
        return (statistics.median(self.samples) / PROBE_NOMINAL_S) ** SENSITIVITY
