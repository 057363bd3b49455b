"""Wall times rescaled to a fixed host speed.

On a shared host the same Python code runs at different speeds from one
minute to the next, as the other tenants load the cores; process CPU time
moves with wall time, so it does not help.  A fixed pure-Python loop that
uses no sgk code slows down with the host in step, so each measured
interval is bracketed by timings of that loop, and its wall time is
rescaled by the loop's nominal time over the loop's measured time:

    rescaled = wall * REF_LOOP_S / mean(loop time before, loop time after)

which is how long the same work takes on a host where the loop takes
REF_LOOP_S.  A change to sgk moves `wall` and leaves the loop alone, so it
shows in full in the rescaled time; a change in host speed moves both.
"""

from __future__ import annotations

import time

# Nominal time of one `reference_loop()` call.  On a 2-vCPU Intel Xeon
# guest at 2.0 GHz with Python 3.11 it took 4.2 to 5.5 ms.
REF_LOOP_S = 0.0045
# Calls per probe; the mean call time of a probe is the host speed sample.
PROBE_CALLS = 2


def reference_loop() -> int:
    """Fixed work with sgk's mix of operations: dict lookups and updates,
    tuple building, list appends, float arithmetic and a sort."""
    acc = {}
    pairs = []
    for i in range(5000):
        k = (i * 7919) % 1009
        acc[k] = acc.get(k, 0.0) + i * 0.5
        pairs.append((k, i))
    pairs.sort()
    return len(acc) + len(pairs)


def probe() -> float:
    """Mean wall time of one `reference_loop()` call, measured now."""
    started = time.perf_counter()
    for _ in range(PROBE_CALLS):
        reference_loop()
    return (time.perf_counter() - started) / PROBE_CALLS


class HostClock:
    """Times intervals in wall seconds and in seconds at the nominal speed.

    The probe after one interval is the probe before the next, so back-to-
    back intervals cost one probe each.  `loops` keeps every probe."""

    def __init__(self):
        self.loops = [probe()]

    def timed(self, fn, *args) -> tuple:
        """(wall s, rescaled s, result) of `fn(*args)`."""
        before = self.loops[-1]
        started = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - started
        self.loops.append(probe())
        return wall, wall * REF_LOOP_S * 2 / (before + self.loops[-1]), result
