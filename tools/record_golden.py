#!/usr/bin/env python
"""(Re)record the golden corpora under ``tests/sim/golden/``.

Usage::

    PYTHONPATH=src python tools/record_golden.py [--out DIR] [--reference]

Writes the per-app trace corpus into ``--out``, and the exploration and
metrics corpora into its ``explore/`` and ``metrics/`` subdirectories.
``--reference`` records the trace corpus through the pre-rewrite
:class:`repro.sim._reference.ReferenceKernel` instead of the fast
kernel.  Both must write byte-identical files — recording with the flag
and diffing against a plain recording is a manual end-to-end check of
the bit-identical-trace contract (the test suite automates the same
comparison on a subset).

Re-record only when a deliberate change alters trace content (new app
workload, new event field, changed source line of a traced location) —
and say why in the commit message.  A diff you cannot explain is a
regression, not a new golden.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.goldens import GOLDEN_DIR, record_corpus  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=GOLDEN_DIR, help="output directory")
    ap.add_argument(
        "--reference",
        action="store_true",
        help="record through the pre-rewrite ReferenceKernel",
    )
    args = ap.parse_args(argv)
    if args.reference:
        from repro.sim._reference import ReferenceKernel as kernel_cls
    else:
        from repro.sim.kernel import Kernel as kernel_cls
    written = record_corpus(args.out, kernel_cls=kernel_cls, echo=True)
    print(f"{len(written)} corpus files in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
