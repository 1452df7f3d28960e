"""The host-speed reference: a fixed pure-Python loop, independent of the
library, timed around every op so each op's CPU time can be scaled to a host
of fixed speed.

On a shared VM the CPU time of the same pure-Python work drifts by a factor
of two from second to second and for minutes at a time, with other tenants'
load; CPU time alone does not remove that.  The loop below does the same
kind of work as the library (dict lookups, tuple keys, integer arithmetic),
so it slows with the host as the ops do.  An op's scaled latency is

    cpu_seconds * REFERENCE_S / (mean CPU time of the loop just before and
                                 just after the op)

that is, the time the op would take on a host where the loop takes
REFERENCE_S, about what it takes on an idle 2-vCPU x86-64 VM with
CPython 3.11.  A change to the library cannot change the loop, so it moves
the scaled figures as much as it moves the op's own CPU time.
"""

from time import process_time

REFERENCE_S = 0.002


def reference_loop():
    table = {}
    for i in range(10000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i * i
    return len(table)


def reference_time(repeats=1) -> float:
    """Median CPU time of ``repeats`` runs of the loop."""
    times = []
    for _ in range(repeats):
        start = process_time()
        reference_loop()
        times.append(process_time() - start)
    return sorted(times)[len(times) // 2]


class ScaledClock:
    """Times calls by CPU time scaled to the reference host.  The loop is
    timed once between consecutive calls and serves as the 'after' of one
    and the 'before' of the next."""

    def __init__(self):
        self.last = reference_time()

    def call(self, fn, *args):
        """(fn(*args), scaled seconds)."""
        start = process_time()
        result = fn(*args)
        cpu = process_time() - start
        before, self.last = self.last, reference_time()
        return result, cpu * 2 * REFERENCE_S / (before + self.last)
