"""A probe of the host's speed, to scale measured times to a reference."""

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_KEYS = 7500
PROBE_EVERY_S = 0.05
PROBE_NEAREST = 5
PROBE_REFERENCE_S = 0.001


class HostSpeed:
    """Times a fixed pure-Python loop between ops, to follow the host's speed.

    On a shared 2-vCPU virtual machine, a fixed loop's time averaged
    63 ms in some 10 s spells of a five-minute span and 110 ms in
    others, and CPU time drifted with it, so the slowdown came from
    outside the process.  The probe runs at most every PROBE_EVERY_S,
    never inside an op.  Each op's time is scaled by PROBE_REFERENCE_S
    over the median of the PROBE_NEAREST probes just before it and just
    after it.  selftest.py checks that the scaled throughput follows a
    planted doubling of op cost and does not follow memory the library
    keeps alive.
    """

    def __init__(self):
        self.starts = []
        self.lengths = []
        self._keys = [(i % 97, i % 89) for i in range(PROBE_KEYS)]
        self._flags = dict.fromkeys(self._keys, 0)

    def tick(self, force=False):
        """Run the probe if it is due.

        The probe hashes tuples and updates a dict, as the library does,
        but allocates nothing: probes at speed-dependent moments would
        otherwise move the heap's layout and so the peak RSS, and the
        probe's own time would depend on the heap the library leaves.
        """
        start = perf_counter()
        if (not force and self.starts
                and start - self.starts[-1] < PROBE_EVERY_S):
            return
        flags = self._flags
        for key in self._keys:
            flags[key] ^= 1
        self.starts.append(start)
        self.lengths.append(perf_counter() - start)

    def scale(self, start, end):
        """Return the factor mapping a span's time to the reference speed."""
        lo = max(0, bisect_left(self.starts, start) - PROBE_NEAREST)
        hi = bisect_right(self.starts, end) + PROBE_NEAREST
        return PROBE_REFERENCE_S / statistics.median(self.lengths[lo:hi])
