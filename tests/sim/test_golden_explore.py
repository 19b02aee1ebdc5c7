"""Exploration corpus: byte-level regression battery for the explorers.

The differential batteries compare one explorer mode with another, so a
change that moved every mode alike would pass them.  This test pins the
explorers to a fixed reference instead: the corpus
(``tests/sim/golden/explore/corpus.json``, see :mod:`repro.goldens`) is
re-rendered from live walks — the plain DFS on every registry app, and
plain, sleep-set and sharded DPOR on the untimed subjects, each with no
bound, one preemption and one variable — and compared **byte-for-byte**
with the committed file.

A deliberate change to what an exploration returns must re-record::

    PYTHONPATH=src python tools/record_golden.py   # or: make golden

and the resulting diff is reviewed like any other behaviour change.
"""

import json

from repro.goldens import EXPLORE_GOLDEN, render_explore_corpus


def test_explore_corpus_is_bit_identical():
    assert EXPLORE_GOLDEN.exists(), (
        f"missing exploration corpus {EXPLORE_GOLDEN}; "
        "record it with: PYTHONPATH=src python tools/record_golden.py"
    )
    committed = EXPLORE_GOLDEN.read_text()
    rendered = render_explore_corpus()
    if committed != rendered:
        old = {
            (e["app"], e["bug"], e["mode"], e["bound"]): e
            for e in json.loads(committed)
        }
        diverged = [
            (e["app"], e["bug"], e["mode"], e["bound"])
            for e in json.loads(rendered)
            if old.get((e["app"], e["bug"], e["mode"], e["bound"])) != e
        ]
        raise AssertionError(
            f"exploration corpus diverged from {EXPLORE_GOLDEN} in "
            f"{len(diverged)} case(s), first {diverged[:5]} — if the change "
            "is deliberate, re-record with tools/record_golden.py and "
            "review the diff"
        )
