"""Metrics corpus: byte-level regression battery for instrumented runs.

The trace corpus runs every case uninstrumented, and the instrumentation
tests assert only bounds (``>= 1``), so a change that moved every
reported metric alike would pass both.  This test pins what instrumented
runs report instead: the corpus (``tests/sim/golden/metrics/corpus.json``,
see :mod:`repro.goldens`) holds, for a collected trial sweep of every
registry app (plain and with its first bug) and for a sleep-set DPOR
explore job on every untimed subject (serial and sharded), the sorted
metric names and a SHA-256 of the deterministic metrics view.  It is
re-rendered from live runs and compared **byte-for-byte** with the
committed file.

A deliberate change to what instrumented runs report must re-record::

    PYTHONPATH=src python tools/record_golden.py   # or: make golden

and the resulting diff is reviewed like any other behaviour change.
"""

import json

from repro.goldens import METRICS_GOLDEN, render_metrics_corpus


def _key(entry):
    return entry["kind"], entry["app"], entry["bug"], entry["workers"]


def test_metrics_corpus_is_bit_identical():
    assert METRICS_GOLDEN.exists(), (
        f"missing metrics corpus {METRICS_GOLDEN}; "
        "record it with: PYTHONPATH=src python tools/record_golden.py"
    )
    committed = METRICS_GOLDEN.read_text()
    rendered = render_metrics_corpus()
    if committed != rendered:
        old = {_key(e): e for e in json.loads(committed)}
        diverged = [_key(e) for e in json.loads(rendered) if old.get(_key(e)) != e]
        raise AssertionError(
            f"metrics corpus diverged from {METRICS_GOLDEN} in "
            f"{len(diverged)} case(s), first {diverged[:5]} — if the change "
            "is deliberate, re-record with tools/record_golden.py and "
            "review the diff"
        )
