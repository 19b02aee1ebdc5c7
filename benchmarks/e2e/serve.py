"""Launch one ``repro serve`` or ``repro route`` process for the benchmark.

Usage::

    python benchmarks/e2e/serve.py [--trace-dir DIR] serve|route [repro args...]

With ``--trace-dir`` the span wrappers are installed before the server
starts, so the pre-forked pool workers inherit them.  The rest of the
command line goes to ``repro.__main__.main`` unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def main(argv):
    """Install tracing if asked, then run the repro CLI in this process."""
    if argv[:1] == ["--trace-dir"]:
        import spans

        spans.install(argv[1])
        argv = argv[2:]
    from repro.__main__ import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
