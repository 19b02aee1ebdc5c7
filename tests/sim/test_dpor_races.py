"""The indexed race lookup against the backward scan it replaced.

:func:`repro.sim.dpor._races` finds, for every step of a run, the last
earlier dependent step of another thread through a per-object index.
The property below draws runs (choices, runnable sets, footprints, the
walk's ``base`` and its live-frame count) and checks that the index
yields exactly the race points of a backward scan over live frames,
the form the race analysis took before the index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dpor import _races


def _dependent(a, b):
    """Two footprints conflict: one object, and not both reads."""
    for obj_a, cls_a in a:
        for obj_b, cls_b in b:
            if obj_a == obj_b and (cls_a != "r" or cls_b != "r"):
                return True
    return False


def _scan_races(choices, runnables, foot, base, n_frames):
    """Reference: scan back from every step to the last dependent step
    of another thread, clamped to the live frames."""
    races = []
    for j in range(base + 1, len(choices)):
        tid_j = choices[j]
        for i in range(min(j - 1, base + n_frames - 1), base - 1, -1):
            if choices[i] == tid_j or not _dependent(foot[i], foot[j]):
                continue
            if tid_j in runnables[i]:
                races.append((i, (tid_j,), False))
            else:
                alts = tuple(a for a in runnables[i] if a != choices[i])
                races.append((i, alts, True))
            break
    return races


@st.composite
def runs(draw):
    n_tids = draw(st.integers(1, 5))
    n_objs = draw(st.integers(1, 3))
    length = draw(st.integers(0, 30))
    tids = st.integers(0, n_tids - 1)
    choices = draw(st.lists(tids, min_size=length, max_size=length))
    runnables = [
        tuple(sorted({c} | draw(st.sets(tids, max_size=n_tids)))) for c in choices
    ]
    access = st.tuples(st.integers(0, n_objs - 1), st.sampled_from("rws"))
    foot = [draw(st.sets(access, max_size=3)) for _ in choices]
    base = draw(st.integers(0, length))
    n_frames = draw(st.integers(0, length - base))
    return choices, runnables, foot, base, n_frames


@settings(max_examples=200, deadline=None)
@given(run=runs())
def test_index_finds_the_races_the_backward_scan_finds(run):
    assert _races(*run) == _scan_races(*run)


def test_read_read_is_independent_and_a_write_races_with_a_read():
    foot = [{(0, "r")}, {(0, "r")}, {(0, "w")}]
    choices, runnables = [0, 1, 2], [(0, 1, 2)] * 3
    assert _races(choices, runnables, foot, 0, 3) == [(1, (2,), False)]
    assert _scan_races(choices, runnables, foot, 0, 3) == [(1, (2,), False)]
