"""A fixed pure-Python kernel that measures how fast the host runs Python now.

The shared hosts this benchmark runs on switch between speeds that differ
by half, within a fraction of a second, and process CPU time moves with
wall time, so neither clock alone gives steady figures.  ``run.py`` runs
``reference`` between chunks of about ``CHUNK_S`` seconds of jobs and scales
each job's time by ``REFERENCE_S`` over the kernel's mean time around it
(see ``Runner.run_pass``): times are reported as seconds on a host where
the kernel takes ``REFERENCE_S``.  The kernel never touches the program
under test, so a change to the program shows in full; only the host's
speed is divided out.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.007  # about the kernel's median time on a shared 2-vCPU host, Python 3.11
CHUNK_S = 0.03


def _kernel() -> int:
    # Breadth-first search over the subsets of ten items, as frozensets in a
    # dict, then sorted and rendered: the operations the explorer and the
    # CLI spend their time in.
    parent = {frozenset(): None}
    frontier = [frozenset()]
    while frontier:
        following = []
        for state in frontier:
            for item in range(10):
                if item not in state:
                    successor = state | {item}
                    if successor not in parent:
                        parent[successor] = state
                        following.append(successor)
        frontier = following
    lines = sorted(",".join(map(str, sorted(s))) for s in parent)
    return len("\n".join(lines))


def reference() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
