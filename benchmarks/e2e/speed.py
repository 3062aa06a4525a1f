"""A speedometer for a box whose clock speed is not its own.

The sandbox this benchmark runs in is a small VM on a shared host: a
fixed pure-Python loop takes 8 ms when the host is quiet and anything
up to twice that — for a fraction of a second or for minutes — when it
is not, in wall *and* CPU time, so it is the machine that slows, not
the process that waits.  Every timed number inherits that factor: ten
runs of one commit spread 12-26 % on raw medians and tails, more than
any change worth making.

So the workloads time this loop before every op and once after the
last, and report each op's wall at the *reference speed*:
``wall x NOMINAL_SPIN_MS / median(the two spins before and the two
after it)``.  On a quiet box the factor is 1 and the numbers are plain
milliseconds.  Measured on recorded series of ten runs, that local
window brought the spread of a serve workload's p50 from 9 % to 4 % and
of its p90 from 23 % to 4 %, where one factor per run left the p90 at
16 %: slow spells are often shorter than a run.  Raw medians and the
factors are printed beside the metrics.
"""

from __future__ import annotations

import time
from typing import List

from e2e import stats

SPIN_ITERATIONS = 150_000
#: What :func:`spin` takes on a quiet box of this class (2 vCPU, CPython
#: 3.11).  A unit, not a measurement: it only fixes the scale.
NOMINAL_SPIN_MS = 8.0
#: Spins taken into an op's factor on each side of it.
WINDOW = 2


def spin() -> float:
    """Milliseconds the fixed loop took just now."""
    started = time.perf_counter()
    total = 0
    for index in range(SPIN_ITERATIONS):
        total += index * index % 7
    return (time.perf_counter() - started) * 1e3


class SpeedMeter:
    """Spin samples in the order taken.

    ``mark = meter.sample()`` goes before an op; the next op's sample
    (or one closing sample) follows it.  ``meter.factor(mark)`` is then
    what that op's wall is multiplied by.
    """

    def __init__(self) -> None:
        self.spins: List[float] = []

    def sample(self) -> int:
        self.spins.append(spin())
        return len(self.spins) - 1

    def factor(self, mark: int) -> float:
        low = max(0, mark - WINDOW + 1)
        window = self.spins[low:mark + WINDOW + 1]
        return NOMINAL_SPIN_MS / stats.median(window)
