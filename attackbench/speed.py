"""Machine-speed normalisation of wall times.

The hosts this benchmark runs on are shared, and the speed of one core drifts
by up to 1.7x over a minute as neighbours come and go. A fixed calibration
probe, timed right before and right after each measured interval, tracks that
drift: over eight passes on identical inputs, raw attacked graphs per second
spread 1.64x (38.5-63.1) while the probe-normalised figure spread 1.10x.

An interval's reference-speed duration is its wall time scaled by
PROBE_REF_S / (mean probe time around it): the time it would have taken had
the probe run in PROBE_REF_S. The program never runs the probe, so a change
to the program moves the normalised figures as it moves the raw ones.
"""

from __future__ import annotations

import time

# Probe time that defines reference speed; about what the probe takes on an
# idle core of a 2-core x86-64 VM under Python 3.11.
PROBE_REF_S = 0.001


def _probe_work() -> int:
    # dict, str and sort work of the kind WL relabelling does
    counts: dict[str, int] = {}
    for i in range(500):
        key = "|".join(map(str, sorted((i * 7919 + k) % 97 for k in range(6))))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe_s() -> float:
    """Fastest of three timings of the fixed probe work, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Interval:
    """Times one interval: `with Interval() as t: ...`, then t.wall_s and t.ref_s."""

    def __enter__(self) -> "Interval":
        self._p0 = probe_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        p1 = probe_s()
        self.ref_s = self.wall_s * PROBE_REF_S / ((self._p0 + p1) / 2)
