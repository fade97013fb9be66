"""Scaling of measured times to a reference host speed.

The shared 2-core host switches between a fast and a slow state, about 1.5x
apart, that last from seconds to minutes, so raw seconds spread by up to 50%
from run to run. Every timed interval is therefore bracketed by runs of a
fixed pure-Python loop (`LOOP`) in the same process, never concurrent with
the timed work, and also reported scaled to the loop's reference time:

    scaled = raw * LOOP_REF_S / mean(loop time just before, just after)

The loop touches no ssdkit code, so a change to the program moves the scaled
time as much as the raw time. Scaled seconds compare from run to run; they
are not wall seconds (the loop runs slower inside a worker holding a large
heap than in a fresh interpreter), so raw times are reported beside them.
Scaling helps intervals of a few seconds or less, which sit in one host
state: it cut the run-to-run spread of setup_s from about 0.25 to 0.08 and
of user_files pass_s from 0.22-0.32 to 0.05-0.15. It does not help a
command that spans several states, such as the single 10- and 30-second
commands of space_dual_suites and vz_split_norms.
"""

from __future__ import annotations

import time

LOOP = """
def loop_seconds():
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(time.perf_counter() - t)
    return sorted(times)[1]
"""
# median loop time on the reference host (2 cores, Python 3.11) in its fast state
LOOP_REF_S = 0.013
# OpenBLAS worker threads spin for a while after a BLAS call and slow the loop
# on the sibling core; this much sleep lets them park first
SETTLE_S = 0.25

# time to import ssdkit.cli in a fresh interpreter, bracketed by the loop
IMPORT_PROBE = "import time\n" + LOOP + """
before = loop_seconds()
t = time.perf_counter()
import ssdkit.cli
d = time.perf_counter() - t
print(d, (before + loop_seconds()) / 2, ssdkit.cli.__file__)
"""

exec(LOOP)      # defines loop_seconds() here from the same source the probes run


def settled_loop_seconds():
    time.sleep(SETTLE_S)
    return loop_seconds()


def scale(seconds, loop_before, loop_after):
    """`seconds` at the reference host speed."""
    return seconds * LOOP_REF_S / (0.5 * (loop_before + loop_after))
