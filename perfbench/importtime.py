"""Time ``import semiglue.cli`` in this fresh interpreter.

    python3 perfbench/importtime.py

Prints the import time, unscaled and scaled to the reference host speed
by probes run just after it.  Nothing but sys and time is imported
first, so the modules semiglue.cli shares with the benchmark count in
its time.  run.py starts it once per set-up sample.
"""

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/src")
start = time.perf_counter()
import semiglue.cli  # noqa: E402,F401
end = time.perf_counter()

from speed import PROBE_NEAREST, HostSpeed  # noqa: E402

speed = HostSpeed()
for _ in range(PROBE_NEAREST):
    speed.tick(force=True)
print(end - start, (end - start) * speed.scale(start, end))
