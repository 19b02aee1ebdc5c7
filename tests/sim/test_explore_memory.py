"""Memory of a capped plain walk over a long-running program.

The plain DFS pushes every unexplored sibling of every run.  Pushed as
a full choice-prefix copy, one run of L choices with k runnable threads
allocates about L²·(k−1)/2 list cells, most of which a capped walk
never pops; the walk below then peaked at 1.7 GiB.  Pushed as
``(choices, depth, alt)`` with the prefix built on pop, it stays at
tens of MiB.  tracemalloc counts Python allocations deterministically,
so the bound does not depend on the host.
"""

import tracemalloc

from repro.harness.exploration import explore_app

#: Peak traced allocation allowed for the walk below.
PEAK_BOUND_MIB = 256


def test_capped_walk_of_full_size_threadpool_stays_small():
    tracemalloc.start()
    try:
        ex = explore_app("threadpool", "audit_race", max_schedules=8, max_steps=1500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ex.exploration.count == 8
    assert peak < PEAK_BOUND_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"
