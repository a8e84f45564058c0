"""Idle spinner and stall detector for one CPU.

    python3 stallwatch.py CPU THRESHOLD_S

Pinned to one CPU at the ``SCHED_IDLE`` policy, it spins whenever
nothing else wants that CPU, so the CPU never halts.  On a shared
virtual machine a halted virtual CPU waits for the host to run it again
when the program's next packet or timer arrives, often for milliseconds;
that wait measures the host, not the program.  A spinning ``SCHED_IDLE``
process gives way at once to any other runnable process.

It also records when the host took the CPU away outright: a gap between
two clock reads longer than ``THRESHOLD_S`` that its own wait on the run
queue (``/proc/self/schedstat``) does not explain, i.e. that the
program's processes did not spend running.

And it records how fast the CPU runs: its mean turn time over each
``BUCKET_S`` stretch, from the turns nothing interrupted.  A shared host
slows a CPU by up to 2x for a fraction of a second to seconds at a time,
and the spinner's turns slow with it.

Prints ``ready``; on a line on stdin prints ``{"stalls": [[start, end],
...], "speed": [[time, seconds per turn], ...]}`` with times on
``time.perf_counter`` (``CLOCK_MONOTONIC``, shared by all processes) and
exits.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: clock reads between two looks at stdin
POLL_EVERY = 1000
#: the turn time is reported per bucket this long
BUCKET_S = 0.005
#: a turn longer than this was interrupted and says nothing of the speed
TURN_MAX_S = 20e-6
#: a bucket with fewer uninterrupted turns is not reported
MIN_TURNS = 50


def main() -> int:
    cpu, threshold = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    schedstat = os.open("/proc/self/schedstat", os.O_RDONLY)

    def run_delay() -> float:
        """Seconds this process has waited on a run queue, in total."""
        return int(os.pread(schedstat, 128, 0).split()[1]) / 1e9

    stalls, speed = [], []
    bucket, turns, spun = -1, 0, 0.0
    clock = time.perf_counter
    print("ready", flush=True)
    last, last_delay = clock(), run_delay()
    n = 0
    while True:
        # A kernel entry per turn: a wake-up elsewhere that asks this CPU
        # to reschedule may set a flag without interrupting it, and the
        # flag is only seen on the way out of the kernel.
        os.sched_yield()
        now = clock()
        if now - last < TURN_MAX_S:
            if int(now / BUCKET_S) != bucket:
                if turns >= MIN_TURNS:
                    speed.append(((bucket + 0.5) * BUCKET_S, spun / turns))
                bucket, turns, spun = int(now / BUCKET_S), 0, 0.0
            turns += 1
            spun += now - last
        elif now - last > threshold:
            delay = run_delay()
            if (now - last) - (delay - last_delay) > threshold:
                stalls.append((last, now))
            last_delay = delay
        last = now
        n += 1
        if n % POLL_EVERY == 0:
            last_delay = run_delay()
            if select.select([sys.stdin], [], [], 0)[0]:
                break
    os.close(schedstat)
    print(json.dumps({"stalls": stalls, "speed": speed}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
