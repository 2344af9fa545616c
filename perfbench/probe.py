"""Host-speed probe: scale a pass's wall times to a fixed reference speed.

The 2-core shared virtual machine the benchmark was built on runs a
process at one of two speeds about 1.7x apart, and switches between them
every few tenths of a second to few seconds, according to what else runs
on the host.  Wall times taken on it spread by that factor from run to
run, whatever the program does.  A pass therefore times a fixed
pure-Python loop (the probe, independent of the package) every
``PROBE_EVERY_S`` seconds.  The pass's wall time is split into segments
at the probes; the part of a measured interval that falls in a segment
is multiplied by ``REFERENCE_S`` over the mean of the probes on either
side of it.  The result is the time the call would have taken on a host
on which the probe takes ``REFERENCE_S``: the fast state of that machine.
On a host of steady speed, where the probe takes ``REFERENCE_S``, it is
the wall time itself.  Probe time is left out of every measured time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.05
# The probe's median time on the machine the baseline was measured on, in
# its fast state (Python 3.11.7; see README.md).
REFERENCE_S = 1.7e-4
_REPEATS = 5

# The probe mixes two kinds of work, because the host's slow states slow
# them by different factors and the package does both: scattered reads and
# writes in a table larger than the core's L2 cache, and small-object work
# (method calls, a sort, a set, Fraction sums).  A tight loop over a small
# table alone overstated the package's slowdown by up to 10%.
_TABLE_SIZE = 1 << 16
_table: dict[int, int] = {}
_order = [(i * 40503) & (_TABLE_SIZE - 1) for i in range(600)]


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return (self.b, self.a)


def _loop() -> None:
    table = _table
    acc = 0
    for k in _order:
        value = table[k]
        acc += value
        table[k] = value ^ 1
    items = [_Item(i, (i * 7919) % 257) for i in range(150)]
    items.sort(key=_Item.key)
    seen = set()
    total = Fraction(0)
    for item in items:
        seen.add(item.b)
        if item.a % 16 == 0:
            total += Fraction(item.a, item.b + 1)


def probe() -> float:
    """Median time of ``_REPEATS`` runs of the loop, in seconds."""
    if not _table:
        _table.update((i, (i * 2654435761) % 1000003) for i in range(_TABLE_SIZE))
    clock = time.perf_counter
    times = []
    for _ in range(_REPEATS):
        start = clock()
        _loop()
        times.append(clock() - start)
    return statistics.median(times)


class Meter:
    """Probes every ``PROBE_EVERY_S`` seconds, from a timer signal, until ``stop``.

    The handler runs between two bytecodes of the main thread, inside a
    call into the package as well as between calls, so that a long call
    is scaled by the speed measured while it ran.  Segment j is the wall
    time between probe j and probe j+1, from ``starts[j]`` to ``ends[j]``;
    probe time lies outside every segment, so it is left out of every
    scaled time.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.probes: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self.cut()

    def cut(self, *_signal) -> None:
        """Close the open segment (if any) with a probe and open the next."""
        if self._busy:
            return
        self._busy = True
        now = self.clock()
        # The probe frees all it allocates, so with the collector off it
        # starts no collection of its own.
        enabled = gc.isenabled()
        gc.disable()
        if self.probes:
            self.ends.append(now)
        self.probes.append(probe())
        if enabled:
            gc.enable()
        self.starts.append(self.clock())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.cut)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.cut()

    def scales(self) -> list[float]:
        p = self.probes
        return [2 * REFERENCE_S / (a + b) for a, b in zip(p, p[1:])]

    def scaled(self, intervals) -> list[float]:
        """Scaled length of each (begin, end) clock interval, in begin order,
        once ``stop`` has been called."""
        scales, starts, ends = self.scales(), self.starts, self.ends
        out = []
        j = 0
        for begin, end in intervals:
            while j < len(ends) and ends[j] <= begin:
                j += 1
            total = 0.0
            i = j
            while i < len(ends) and starts[i] < end:
                total += (min(end, ends[i]) - max(begin, starts[i])) * scales[i]
                i += 1
            out.append(total)
        return out
