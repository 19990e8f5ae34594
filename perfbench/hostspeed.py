"""Host-speed correction for timings taken on a shared machine.

Other tenants of a shared host slow this process down by up to ~1.9x,
in phases lasting from a few seconds to tens of seconds (measured with a
fixed pure-Python loop: 0.080 s in quiet phases, up to 0.15 s in busy
ones; process CPU time tracks wall time, so the CPU itself runs slower).
A run is shorter than the slow phases, so neither medians nor minima of
repeated iterations are steady across runs.

:class:`HostSpeed` samples the host's speed while a timing is taken: a
timer signal runs a fixed probe every :data:`PERIOD_S` seconds, and the
timing is rescaled by the mean of ``REFERENCE_S / probe`` over the
samples -- the time the same work would take on a host where the probe
takes :data:`REFERENCE_S`.  The probe costs about 0.3% of the run.

The probe times only its own fixed work, so a slowdown the measured
program causes itself survives the correction: more work per query, a
second thread contending for the interpreter, or a process sharing its
core.  ``test_perfbench.py`` injects each of these and checks that the
corrected time grows by the raw time's ratio.  The probe does share the
process, so it is not blind to the program: a thread busy on the other
core slowed it a little, and corrected ratios read 0.81 to 1.05 of the
raw ratio there.  The traced run's JSON reports the raw wall beside the
corrected one.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Seconds between probes.
PERIOD_S = 0.025
#: What one probe takes beside a running simulation in a quiet phase of
#: the host these figures were first measured on; it fixes the unit of
#: corrected times.
REFERENCE_S = 100e-6


def probe() -> float:
    """Time a fixed mix of heap, dict and list work like the simulator's."""
    began = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(160):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        key = i & 31
        counts[key] = counts.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - began


class HostSpeed:
    """Context manager sampling host speed while a timing is taken."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_timer(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(probe())

    def factor(self) -> float:
        """Mean ``REFERENCE_S / probe`` over the samples taken."""
        return sum(REFERENCE_S / sample for sample in self.samples) / len(self.samples)
