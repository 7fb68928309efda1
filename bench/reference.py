"""The reference kernel: fixed work that does not depend on cliquecomm.

The speed of a core on a shared host moves by tens of percent from one
second to the next, and by as much from one minute to the next.  An
untraced pass times this kernel while it runs, and `wall_norm` divides the
pass time by the median kernel time, which cancels much of that drift.

`kernel()` is about 2 ms of dict and set updates over int tuples, the
kind of work the relation and table loops do.  It is short so that it
mostly ends within one GIL switch interval (5 ms): a sample that has to
wait for the pass to hand the GIL back reads long, and the median drops
it.

In process, a `Sampler` thread times the kernel every SAMPLE_INTERVAL_S
while the pass runs, so that operations lasting seconds are sampled
throughout and not only at their ends.  The kernel holds the GIL, so each
sample briefly pauses the pass; that costs the pass about 1 % and is the
same on every commit.  Run as a script, the file starts a fresh
interpreter, imports numpy and runs the kernel once; the worker times the
whole process.  That is the reference for operations that are themselves
fresh processes (the CLI commands of cli-files), whose time is mostly
interpreter start and imports.
"""

import statistics
import threading
import time

SAMPLE_INTERVAL_S = 0.2
TUPLES = [(i % 1013, i % 977, i % 7) for i in range(10_000)]


def kernel():
    counts = {}
    for key in TUPLES[::2]:
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + len(set(TUPLES[1::2]))


def timed():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler(threading.Thread):
    """Times the kernel every SAMPLE_INTERVAL_S until `stop()`, which
    returns the median sample (None if the pass was too short for one)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_INTERVAL_S):
            self.samples.append(timed())

    def stop(self):
        self.done.set()
        self.join()
        return statistics.median(self.samples) if self.samples else None


if __name__ == "__main__":
    import numpy  # noqa: F401  (a CLI command imports it before any work)

    kernel()
