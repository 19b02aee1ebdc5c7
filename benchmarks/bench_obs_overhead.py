"""E-obs — the observability overhead gate.

The design contract of :mod:`repro.obs` is that instrumentation is close
to free: enabling metrics collection (one per-sweep ``MetricsRegistry``,
reset per trial) must cost **less than 5 %** of end-to-end experiment
wall-clock time.  This benchmark enforces the gate on representative
subjects — the same apps Table 1 exercises.

Methodology: machine-level timing on shared runners drifts on the
millisecond scale (CPU frequency scaling, co-tenants), so sequential
"time sweep A, then sweep B" comparisons are unreliable.  Instead every
seed is run twice in alternating order — even seeds plain-first, odd
seeds instrumented-first — and the overhead is the **average of the two
order-conditioned medians** of per-trial differences, which cancels
drift (both runs of a pair see the same machine state) *and* the warm-up
asymmetry of always running one variant second.  The gate is asserted
on the time-weighted aggregate across subjects, matching how the
contract is phrased: <5 % of *experiment* wall-clock time.  The subject
set therefore spans the registry's per-trial duration range — the
shortest apps (where a fixed ~15–20 µs of per-trial flush/wire work is
its largest *fraction*) through the long compute- and lock-heavy
subjects that dominate a real Table 1 run's wall clock.  Per-subject
numbers are reported so a regression in the fixed per-trial cost stays
visible in the short rows even while the aggregate passes.
"""

import statistics
import time

from repro.apps import AppConfig, get_app
from repro.harness.parallel import execute_trial
from repro.obs import MetricsRegistry

from conftest import emit

#: (app, bug) pairs spanning the syscall mix (lock-heavy, condition-wait,
#: semaphore) *and* the per-trial duration range (~160 µs to ~2 ms):
#: the aggregate is time-weighted, so representative weighting needs the
#: long subjects, while the short ones expose the fixed per-trial cost.
SUBJECTS = [
    ("stringbuffer", "atomicity1"),
    ("log4j", "missed-notify1"),
    ("pool", "missed-notify1"),
    ("cache4j", "atomicity1"),
    ("raytracer", "race1"),
]

#: Contractual ceiling from DESIGN.md / the repro.obs module docs.
GATE_PCT = 5.0
#: Extra slack for timer jitter at the trial counts CI uses.
NOISE_PCT = 3.0

WARMUP = 40


def _paired_overhead(app, bug, pairs):
    """Median per-trial base runtime and the order-balanced obs delta.

    The second run of a same-seed pair is systematically warmer (caches,
    allocator, type specialisation) by tens of microseconds on the
    shortest subjects — comparable to the effect being measured — so a
    fixed base-first order would misattribute that warm-up to the
    instrumented side.  Alternating the pair order by seed parity and
    averaging the two order-conditioned medians cancels the slot effect
    exactly while keeping the pairing that cancels machine drift.
    """
    cls = get_app(app)
    cfg_base = AppConfig(bug=bug, collect_metrics=False)
    cfg_obs = AppConfig(bug=bug, collect_metrics=True)
    reuse = MetricsRegistry()
    for seed in range(WARMUP):
        execute_trial(cls, cfg_base, seed)
        execute_trial(cls, cfg_obs, seed, reuse_obs=reuse)
    base_times = []
    d_first = []  # pairs where the instrumented run went first
    d_second = []  # pairs where it went second
    for seed in range(pairs):
        if seed % 2 == 0:
            t0 = time.perf_counter()
            execute_trial(cls, cfg_base, seed)
            t1 = time.perf_counter()
            execute_trial(cls, cfg_obs, seed, reuse_obs=reuse)
            t2 = time.perf_counter()
            base_times.append(t1 - t0)
            d_second.append((t2 - t1) - (t1 - t0))
        else:
            t0 = time.perf_counter()
            execute_trial(cls, cfg_obs, seed, reuse_obs=reuse)
            t1 = time.perf_counter()
            execute_trial(cls, cfg_base, seed)
            t2 = time.perf_counter()
            base_times.append(t2 - t1)
            d_first.append((t1 - t0) - (t2 - t1))
    base = statistics.median(base_times)
    delta = (statistics.median(d_first) + statistics.median(d_second)) / 2
    return base, delta


def test_obs_overhead_gate(benchmark, trials, workers):
    pairs = max(100, min(trials * 8, 800))
    rows = []

    def measure_all():
        for app, bug in SUBJECTS:
            rows.append((app, bug) + _paired_overhead(app, bug, pairs))

    benchmark.pedantic(measure_all, rounds=1, iterations=1)

    lines = []
    total_base = total_obs = 0.0
    for app, bug, base, delta in rows:
        pct = 100.0 * delta / base if base > 0 else 0.0
        total_base += base
        total_obs += base + delta
        lines.append(f"{app}/{bug}: base {base * 1e6:7.1f} us/trial  "
                     f"delta {delta * 1e6:+7.1f} us  overhead {pct:+6.2f} %")
    agg_pct = 100.0 * (total_obs - total_base) / total_base
    lines.append(f"time-weighted aggregate: {agg_pct:+.2f} %")
    emit(f"Observability overhead ({pairs} paired trials per subject)",
         "\n".join(lines))

    benchmark.extra_info["overhead_pct"] = {
        f"{a}/{b}": round(100.0 * d / bs, 2) for a, b, bs, d in rows
    }
    benchmark.extra_info["aggregate_overhead_pct"] = round(agg_pct, 2)
    assert agg_pct < GATE_PCT + NOISE_PCT, (
        f"obs-enabled overhead {agg_pct:.2f} % exceeds the "
        f"{GATE_PCT} % gate (+{NOISE_PCT} % noise allowance)"
    )
