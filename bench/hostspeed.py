"""The host's speed while a timed block runs, read from a short probe.

The shared host this benchmark was built on runs the same job up to 3.5x
slower for stretches of a fraction of a second to many minutes, while the
job's CPU time still equals its wall time: the slowdown comes from
neighbours on the same cores, not from waiting, so no clock of the process
can tell it apart. The run-level median cannot remove the long stretches.

So the benchmark times a short fixed probe while each timed block runs:
once right before it, every ``PERIOD_S`` during it (from a ``SIGALRM``
handler, in this one thread) and once right after it. The block's time,
less the probes that ran inside it, is scaled to a reference speed: the
speed at which the probe takes ``REF_PROBE_S``. A change to the program
moves the block's time but not the probe's, so it still shows in full.

The probe does the kind of work the simulator's hot paths do, in two
parts. It pops a few records off a heap into a list of tuples, rescans
them for some nodes and formats them as CSV lines: allocation, heap and
string work. Then it scans the next slice of a large list of records made
once, scattered in memory, with a filter and float arithmetic: the cache
and memory traffic of the per-node rescans over a whole trace, which the
host's slow stretches slow down more than work that stays in cache.
"""

from __future__ import annotations

import contextlib
import heapq
import random
import signal
import statistics
import time

# Seconds the probe takes on the baseline host (2 vCPUs, Python 3.11.7) in a
# quiet phase. Reported times are scaled to this speed; changing it rescales
# every figure, so it stays fixed.
REF_PROBE_S = 0.004
PERIOD_S = 0.25
_RECORDS = 1000
_TRACE_RECORDS = 100_000
_SLICE = 6000
_NODES = 64
_STATES = ("sleep", "receive", "transmit")


class Probe:
    """The fixed work whose time tells the host's current speed."""

    def __init__(self) -> None:
        rng = random.Random(2)
        self._trace = []
        spacers = []  # other allocations in between, as in a real trace
        for i in range(_TRACE_RECORDS):
            start = rng.random() * 100.0
            self._trace.append((i % _NODES, _STATES[i % 3], start, start + 0.01, str(i % 8)))
            spacers.append([i])
        rng.shuffle(self._trace)
        self._cursor = 0

    def _work(self) -> float:
        rng = random.Random(1)
        heap = [(rng.random() * 100.0, i % _NODES) for i in range(_RECORDS)]
        heapq.heapify(heap)
        records = []
        while heap:
            start, node = heapq.heappop(heap)
            records.append((node, _STATES[int(start) % 3], start, start + 0.01, str(node % 8)))
        busy = 0.0
        for node in range(0, _NODES, 6):
            for n, state, s, e, _ch in records:
                if n == node and state == "transmit":
                    busy += e - s
        lines = [f"{n},{state},{s:.9f},{e:.9f},{ch}" for n, state, s, e, ch in records]
        start = self._cursor
        self._cursor = (start + _SLICE) % (_TRACE_RECORDS - _SLICE)
        for n, state, s, e, _ch in self._trace[start:start + _SLICE]:
            if n % 8 == 3 and state == "transmit":
                busy += min(e, 50.0) - max(s, 1.0)
        return busy + len(lines)

    def seconds(self) -> float:
        """Wall seconds of one probe, now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


class Block:
    """One timed block: its wall time and the probe times around and inside it."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.probes: list[float] = []
        self.seconds = 0.0
        self._inside = 0.0  # probe seconds within the block's wall time
        self._running = False

    def _alarm(self, _signum, _frame) -> None:
        took = self.probe.seconds()
        self.probes.append(took)
        if self._running:
            self._inside += took

    @property
    def factor(self) -> float:
        """Multiplies a time taken in the block to the reference speed."""
        return REF_PROBE_S / statistics.fmean(self.probes)

    @property
    def scaled(self) -> float:
        """The block's wall time, less the probes inside it, at the reference speed."""
        return (self.seconds - self._inside) * self.factor


@contextlib.contextmanager
def sampled(probe: Probe, periodic: bool = True):
    """Time the ``with`` body as one block, probing right before and after it.

    With ``periodic`` the probe also runs every PERIOD_S within the body. A
    body whose parts the caller times on their own (as set-up is) passes
    ``periodic=False``, so no probe lands inside a part, and scales each part
    by ``Block.factor``. Read ``factor`` and ``scaled`` after the ``with``.
    """
    block = Block(probe)
    block.probes.append(probe.seconds())
    previous = signal.signal(signal.SIGALRM, block._alarm) if periodic else None
    if periodic:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    block._running = True
    start = time.perf_counter()
    try:
        yield block
    finally:
        block.seconds = time.perf_counter() - start
        block._running = False
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        block.probes.append(probe.seconds())
