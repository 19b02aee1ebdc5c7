"""Golden-trace corpus: byte-level regression battery.

Every registry app's corpus document (``tests/sim/golden/<app>.json``,
see :mod:`repro.goldens`) is re-rendered from a live traced run and
compared **byte-for-byte** against the committed file.  This pins the
bit-identical-trace contract across kernel rewrites: any divergence in
event content, ordering, float formatting, or run facts fails here.
Every case also runs instrumented (with a fresh metrics registry), and
that render must equal the same committed plain file: instrumented and
plain runs of a seed are identical executions.

A legitimate trace-content change (new syscall, edited app source —
the ``loc`` fields carry app/primitive line numbers) must re-record
deliberately::

    PYTHONPATH=src python tools/record_golden.py   # or: make golden

and the resulting diff is reviewed like any other behaviour change.
"""

import pytest

from repro.apps.registry import ALL_APPS
from repro.goldens import GOLDEN_DIR, render_app_corpus

_APPS = sorted(ALL_APPS.values(), key=lambda a: a.name)

#: Plain cases keep the bare app id; instrumented ones add a suffix.
_CASES = [pytest.param(app, False, id=app.name) for app in _APPS] + [
    pytest.param(app, True, id=f"{app.name}-instrumented") for app in _APPS
]


def test_corpus_has_no_orphan_files():
    """Every committed golden file must correspond to a registry app
    (a renamed/removed app must drop its golden, not strand it)."""
    committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
    expected = {f"{app.name}.json" for app in _APPS}
    assert committed == expected


@pytest.mark.parametrize("app_cls, instrumented", _CASES)
def test_golden_trace_is_bit_identical(app_cls, instrumented):
    path = GOLDEN_DIR / f"{app_cls.name}.json"
    assert path.exists(), (
        f"missing golden corpus file {path}; "
        "record it with: PYTHONPATH=src python tools/record_golden.py"
    )
    assert path.read_text() == render_app_corpus(app_cls, instrumented=instrumented), (
        f"trace corpus for {app_cls.name!r} (instrumented={instrumented}) "
        f"diverged from {path} — "
        "if the change is deliberate, re-record with "
        "tools/record_golden.py and review the diff"
    )
