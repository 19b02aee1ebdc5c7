# Convenience targets for the Concurrent Breakpoints reproduction.

PYTHON ?= python
TRIALS ?= 100
# -1 = one worker per CPU
WORKERS ?= -1

.PHONY: install test test-par test-cache test-infer test-bounded test-explore test-obs test-e2e \
	lint docstrings serve-smoke fleet-smoke bench bench-par bench-explore \
	bench-svc bench-cache bench-kernel bench-infer bench-bounding bench-e2e \
	golden report examples all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The parallel-execution battery: every caller of the process pool
# (its own contract tests, trial sweeps, service workers, sharded DPOR),
# engine invariants, and the kernel determinism stress suite.
test-par:
	$(PYTHON) -m pytest tests/pool/ tests/harness/test_parallel_runner.py \
	    tests/svc/test_pool.py tests/sim/test_snapshot_explore.py \
	    tests/sim/test_kernel_determinism.py \
	    tests/core/test_engine_invariants.py

# The cache battery: fingerprint canonicalization properties, store
# atomicity/corruption/eviction, and the cached == fresh differentials.
test-cache:
	$(PYTHON) -m pytest tests/cache/

# The inference battery: candidate generation/matching units, the
# end-to-end trace-to-confirmed-bug acceptance runs, report
# serialization, and the cache/service/CLI differentials.
test-infer:
	$(PYTHON) -m pytest tests/infer/ tests/detect/test_reports_serialization.py

# The bounded-search battery: the bounded == unbounded differential
# equivalence tests, the accounting/monotonicity properties, and the
# large-scale app family (bounded DPOR + PCT fallback).
test-bounded:
	$(PYTHON) -m pytest tests/sim/test_bounding.py tests/apps/test_large_apps.py

# The explorer battery: the committed exploration corpus (byte for
# byte), full-size sleep-set DPOR on the large family (pinned), the
# race index against the backward scan, the plain walk's memory bound,
# bounded == unbounded, the reduction and sharding differentials,
# DPOR, replay, and the frontier/determinism checks.
test-explore:
	$(PYTHON) -m pytest tests/sim/test_golden_explore.py \
	    tests/sim/test_dpor_full_size.py tests/sim/test_dpor_races.py \
	    tests/sim/test_explore_memory.py \
	    tests/sim/test_bounding.py tests/sim/test_snapshot_explore.py \
	    tests/sim/test_dpor.py tests/sim/test_replay_explore.py \
	    tests/sim/test_kernel_determinism.py

# The observability battery: instrumentation and metrics units, the
# metrics corpus (byte for byte), and the trace corpus rendered both
# plain and instrumented against the same committed files.
test-obs:
	$(PYTHON) -m pytest tests/obs/ tests/sim/test_golden_metrics.py \
	    tests/sim/test_golden_traces.py

# The end-to-end benchmark's own unit tests (job generation, metrics,
# span attribution); pytest's default testpaths do not include them.
test-e2e:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Critical-error lint (same rule set as the CI lint job).
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# Docstring-coverage gates on the library (ast-based, stdlib-only):
# >=80% repo-wide, 100% on the operational service layer.
docstrings:
	$(PYTHON) tools/check_docstrings.py
	$(PYTHON) tools/check_docstrings.py --fail-under 100 src/repro/svc

# End-to-end service smoke: start the daemon, submit a job, scrape
# /metrics, SIGTERM, assert a clean drain (same sequence as CI).
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

# Fleet smoke: two cache-backed shards + the consistent-hash router as
# separate processes, mixed run/explore/infer jobs routed cross-shard
# and checked against direct in-process calls, then the chaos phase —
# SIGKILL a shard mid-batch and repair the ring live (same as CI).
fleet-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --fleet

bench:
	REPRO_TRIALS=$(TRIALS) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Same benchmarks with every trial sweep on the worker pool (serial
# baselines and parallel runs are recorded side by side in extra_info).
bench-par:
	REPRO_TRIALS=$(TRIALS) REPRO_WORKERS=$(WORKERS) \
	    $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Exploration performance gates: DPOR and sleep-set pruning, sharded
# DPOR scaling (DESIGN.md section 6.8).
bench-explore:
	REPRO_WORKERS=$(WORKERS) $(PYTHON) -m pytest \
	    benchmarks/bench_exploration.py benchmarks/bench_explore_scaling.py \
	    --benchmark-only -s --benchmark-json=bench-explore.json

# Service scaling gates: daemon vs sequential CLI, client keep-alive,
# and the 64-client fleet vs single daemon; emits BENCH_svc.json and
# gates the speedups against the committed baseline (no
# --benchmark-only so the plain gate test runs too).
bench-svc:
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_svc_throughput.py -q -s

# Cache acceptance gate: warm sweep >= 10x cold, bit-identical results.
bench-cache:
	$(PYTHON) -m pytest benchmarks/bench_cache.py \
	    --benchmark-only -s --benchmark-json=bench-cache.json

# Kernel fast-path perf: emits benchmarks/BENCH_kernel.json and gates
# the fast-vs-reference speedups against the committed baseline (no
# --benchmark-only so the plain gate test runs too).
bench-kernel:
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_kernel_throughput.py benchmarks/bench_obs_overhead.py \
	    -q -s

# Inference throughput: candidates confirmed/sec cold vs warm store,
# emits benchmarks/BENCH_infer.json.
bench-infer:
	$(PYTHON) -m pytest benchmarks/bench_infer.py \
	    --benchmark-only -s

# Bounded-search reduction gate on the large app family: emits
# benchmarks/BENCH_bounding.json (projected >=5x schedule reduction at
# equal bug-finding) and gates it against the committed baseline.
bench-bounding:
	PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_explore_bounding.py --benchmark-only -s

# End-to-end, layer-attributed benchmark: every workload, each in a
# fresh interpreter, untraced (see benchmarks/e2e/README.md).
bench-e2e:
	python3 benchmarks/e2e/run.py

# Re-record the golden corpora: traces, explorations and metrics (only
# after a deliberate content change; the golden tests diff byte-for-byte).
golden:
	PYTHONPATH=src $(PYTHON) tools/record_golden.py

report:
	$(PYTHON) -m repro report --trials $(TRIALS) --out results.md

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f >/dev/null || exit 1; done; echo "all examples OK"

all: test bench
