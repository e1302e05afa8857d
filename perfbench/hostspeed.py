"""Host-speed reference for the end-to-end times.

On a shared host the CPU a pass runs on changes speed by up to 40% over
seconds to minutes, as neighbours load it: the same pass then reads 25 or
40 jobs per second.  So every pass also times a fixed pure-Python loop
before each job, and the end-to-end times are scaled to a host on which that
loop takes REF_S.  The loop touches no motivic code, so a change to the
program shows in full; the raw figures and the loop's own time are printed
beside the scaled ones.
"""

import time

REF_ITERATIONS = 20_000
REF_S = 0.002


def reference_seconds():
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0
