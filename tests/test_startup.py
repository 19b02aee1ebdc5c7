"""What a process loads: only what it runs, and before it forks.

Each test runs a fresh interpreter, because this one has long since
imported everything.  A package "ran" once one of its submodules is in
``sys.modules``: ``numpy`` and ``networkx`` are bound lazily
(:mod:`repro._lazy`), so their top-level entry alone proves nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that a trial sweep, an exploration and ``repro --help`` never
#: need: numpy's body (``numpy._core``, ``numpy.core`` before numpy 2),
#: networkx, the analysis packages, the daemon and the HTTP client.
UNUSED = (
    "numpy.core",
    "numpy._core",
    "networkx",
    "repro.detect",
    "repro.infer",
    "repro.activetest",
    "repro.model",
    "repro.svc.server",
    "repro.svc.router",
    "http.client",
)

_PRELUDE = '''
import json
import sys

def ran(name):
    return any(m.startswith(name + ".") for m in sys.modules)

def note(path, *flags):
    with open(path, "a") as fh:
        fh.write(" ".join(str(int(f)) for f in flags) + "\\n")
'''


def _run(script: str, *argv: str) -> str:
    """Run ``script`` in a fresh interpreter; returns its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _unused_after(script: str) -> list:
    report = f"\nprint(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))\n"
    return json.loads(_run(script + report))


def test_sweep_and_exploration_load_nothing_they_do_not_run():
    assert _unused_after('''
import repro, repro.apps, repro.harness, repro.svc.jobs
from repro.apps import get_app
from repro.harness import explore_summary, run_trials

assert run_trials(get_app("figure4"), n=5, bug="error1").trials == 5
assert run_trials(get_app("figure4"), n=4, bug="error1", workers=2).trials == 4
assert explore_summary("figure4", "error1", max_schedules=20).schedules > 0
assert explore_summary("bank", dpor=True, workers=2, max_schedules=20).schedules > 0
''') == []


def test_cli_help_loads_nothing_it_does_not_run():
    assert _unused_after('''
import runpy
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
''') == []


def test_package_attributes_resolve_on_first_access():
    assert _run('''
import repro
assert "repro.sim" not in sys.modules
assert repro.sim.Kernel.__module__ == "repro.sim.kernel"
from repro import harness
assert harness.run_trials is repro.harness.run_trials
from repro.svc import ReproService
assert ReproService.__module__ == "repro.svc.server"
print("ok")
''') == "ok"


def test_parallel_sweep_loads_numpy_before_it_forks(tmp_path):
    out = tmp_path / "hook.txt"
    _run('''
from repro.apps import get_app
from repro.harness import run_trials

assert not ran("numpy")
stats = run_trials(
    get_app("moldyn"), n=4, bug="race1", workers=2,
    trial_hook=lambda seed, attempt: note(sys.argv[1], ran("numpy")),
)
assert stats.trials == 4 and not stats.failures
print("ok")
''', str(out))
    assert out.read_text().split() == ["1"] * 4


def test_service_loads_what_its_workers_run_before_it_forks(tmp_path):
    out = tmp_path / "hook.txt"
    _run('''
from repro.svc import JobSpec, ReproClient, ReproService

assert not ran("numpy") and not ran("networkx")
svc = ReproService(
    slots=1, fault_hook=lambda spec, attempt: note(sys.argv[1], ran("numpy"), ran("networkx")),
).start()
try:
    record = svc.submit(JobSpec(app="figure4", bug="error1", trials=2))
    done = ReproClient(svc.address).wait(record.id, timeout=120)
    assert done["state"] == "done", done
finally:
    svc.close()
print("ok")
''', str(out))
    assert out.read_text().split() == ["1", "1"]
