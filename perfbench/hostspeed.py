"""Host speed, measured by a fixed reference work interleaved with the jobs.

The benchmark shares a host whose speed drifts: the same job, on the same
input in the same process, takes 1.0 s for a while and then 1.6 s for a
while, in CPU time as in wall time. `Probe.sample` times `reference_work`,
a fixed piece of pure-Python work that does not touch tangleforge, between
jobs. `Probe.scale` then turns a time measured at some moment into
*reference seconds*: the time multiplied by REFERENCE_S over the mean of
the two samples taken just before and just after it. The host's speed
changes within seconds, so a wider window tracks it worse. A change to the
program moves the job times but not the samples, so it shows in full; a
slow spell of the host moves both and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

# seconds REFERENCE_WORK counts as: about its time on the machine of the
# baseline (see README.md) in a fast spell, so that reference seconds read
# close to wall seconds there
REFERENCE_S = 0.007
REFERENCE_ROUNDS = 1000
# take a sample between jobs once this many seconds have passed since the last
SAMPLE_EVERY_S = 0.1


def _bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def reference_work(rounds=REFERENCE_ROUNDS) -> int:
    """Bit masks, frozensets, tuples, dicts and generators on small ints:
    the kinds of work tangleforge's set and separation code does."""
    acc = 0
    seen = {}
    for i in range(rounds):
        mask = (i * 2654435761) & 0xFFFF
        side = frozenset(_bits(mask))
        key = (len(side), mask & 0xFF)
        seen[key] = seen.get(key, 0) + 1
        acc ^= sum(side) + len(seen)
        acc += len([(a, b) for a in side for b in side if a < b])
    return acc


class Probe:
    """Samples of the reference work over a run, and the scaling they give."""

    def __init__(self):
        self.at = []  # perf_counter at the middle of each sample
        self.seconds = []

    def sample(self):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def scale(self, seconds: float, start: float) -> float:
        """`seconds` measured from `start` (a perf_counter reading), in
        reference seconds."""
        i = bisect.bisect_left(self.at, start + seconds / 2)
        around = self.seconds[max(0, i - 1) : i + 1]
        return seconds * REFERENCE_S / statistics.fmean(around)
