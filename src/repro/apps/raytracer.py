"""``raytracer`` — the Java Grande ray tracer (1,860 LoC).

Table 1 rows: four races.  ``race1`` and ``race2`` make the *validation
fail* (the JGF harness checks a pixel checksum at the end, and the lost
updates corrupt it — error column "test fail"); ``race3`` and ``race4``
are silent races on auxiliary state.

Re-created structure: worker threads render interleaved scan lines of a
small NumPy-shaded scene (the serial reference render runs once per image
size per process) and fold per-row results into shared accumulators:

* ``race1`` — the global pixel ``checksum`` RMW (the JGF bug: the
  original used an unsynchronised ``checksum1 += ...``) → test fail;
* ``race2`` — the rendered-rows counter RMW; the harness cross-checks it
  against the image height → test fail;
* ``race3`` — a shared scratch ``maxdepth`` statistic, silent;
* ``race4`` — the thread-pool idle counter, silent.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro._lazy import numpy as np

from repro.core.predicates import SitePolicy
from repro.sim.kernel import Kernel, RunResult
from repro.sim.memory import SharedCell
from repro.sim.syscalls import Sleep

from .base import BaseApp, BugSpec

__all__ = ["RayTracerApp"]


class RayTracerApp(BaseApp):
    """Scan-line renderer with racy result folding."""

    name = "raytracer"
    paper_loc = "1,860"
    bugs = {
        "race1": BugSpec(
            id="race1", kind="race", error="test fail",
            description="pixel checksum RMW race: validation fails",
        ),
        "race2": BugSpec(
            id="race2", kind="race", error="test fail",
            description="rendered-row counter RMW race: validation fails",
        ),
        "race3": BugSpec(
            id="race3", kind="race", error="",
            description="max ray depth statistic RMW race (silent)",
        ),
        "race4": BugSpec(
            id="race4", kind="race", error="",
            description="idle-worker counter RMW race (silent)",
        ),
    }

    def policies(self) -> Dict[str, SitePolicy]:
        """Fresh per-bug Section 6.3 refinement policies."""
        return {b: SitePolicy(bound=1) for b in self.bugs}

    def setup(self, kernel: Kernel) -> None:
        """Build shared state and spawn this subject's threads."""
        self.n_threads = self.param("threads", 2)
        self.height = self.param("height", 24)
        self.width = self.param("width", 32)
        self.checksum = SharedCell(0.0, name="rt.checksum")
        self.rows_done = SharedCell(0, name="rt.rows_done")
        self.maxdepth = SharedCell(0, name="rt.maxdepth")
        self.idle = SharedCell(0, name="rt.idle")
        self.maxdepth_updates = 0
        self.idle_updates = 0
        self.row_sums = _reference_row_sums(self.width, self.height)
        self.expected_checksum = float(sum(self.row_sums))
        for tid in range(self.n_threads):
            kernel.spawn(self._renderer, tid, name=f"rtrunner{tid}")

    #: The JGF-style scene: unit spheres on a grid, one directional light.
    SPHERES = [
        # (centre xyz, radius, diffuse albedo)
        ((-1.2, 0.0, 3.0), 1.0, 0.8),
        ((1.1, -0.3, 4.0), 1.2, 0.6),
        ((0.0, 1.2, 5.0), 0.9, 0.9),
    ]
    LIGHT = property(lambda self: np.array([0.5, 0.7, -0.5]) / np.linalg.norm([0.5, 0.7, -0.5]))

    def _render_row(self, y: int) -> float:
        """Trace one scan line: ray-sphere intersection + Lambert shading.

        Vectorised over the row's pixels (one primary ray per pixel, eye
        at the origin, viewport at z=1).  Pure and deterministic, so the
        serial pre-render gives the exact validation checksum.
        """
        xs = (np.arange(self.width) + 0.5) / self.width * 2.0 - 1.0
        ys = ((y + 0.5) / self.height * 2.0 - 1.0) * (self.height / self.width)
        dirs = np.stack([xs, np.full_like(xs, ys), np.ones_like(xs)], axis=1)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        nearest_t = np.full(self.width, np.inf)
        shade = np.full(self.width, 0.05)  # background / ambient
        for centre, radius, albedo in self.SPHERES:
            c = np.asarray(centre)
            # |o + t d - c|^2 = r^2 with o = 0: t^2 - 2 t (d.c) + |c|^2 - r^2 = 0
            b = dirs @ c
            disc = b * b - (c @ c - radius * radius)
            hit = disc > 0.0
            t = np.where(hit, b - np.sqrt(np.maximum(disc, 0.0)), np.inf)
            t = np.where(t > 1e-6, t, np.inf)
            closer = t < nearest_t
            if not closer.any():
                continue
            points = dirs[closer] * t[closer, None]
            normals = (points - c) / radius
            lambert = np.maximum(normals @ self.LIGHT, 0.0)
            shade[closer] = 0.1 + 0.9 * albedo * lambert
            nearest_t = np.where(closer, t, nearest_t)
        return float(shade.sum())

    def _renderer(self, tid: int):
        rng = self.kernel.rng
        for y in range(tid, self.height, self.n_threads):
            row_sum = self.row_sums[y]
            yield Sleep(rng.uniform(0.0005, 0.004))  # per-row render time
            # race1: checksum fold.
            c = yield from self.checksum.get(loc="RayTracer.java:553")
            yield from self.cb_conflict("race1", self.checksum, first=True, loc="RayTracer.java:553")
            yield from self.checksum.set(c + row_sum, loc="RayTracer.java:554")
            # race2: row counter fold.
            r = yield from self.rows_done.get(loc="RayTracer.java:560")
            yield from self.cb_conflict("race2", self.rows_done, first=True, loc="RayTracer.java:560")
            yield from self.rows_done.set(r + 1, loc="RayTracer.java:561")
            # race3: max depth statistic.
            d = yield from self.maxdepth.get(loc="RayTracer.java:571")
            yield from self.cb_conflict("race3", self.maxdepth, first=True, loc="RayTracer.java:571")
            self.maxdepth_updates += 1
            yield from self.maxdepth.set(d + 1, loc="RayTracer.java:572")
        # race4: idle counter on completion.
        i = yield from self.idle.get(loc="RayTracer.java:610")
        yield from self.cb_conflict("race4", self.idle, first=True, loc="RayTracer.java:610")
        self.idle_updates += 1
        yield from self.idle.set(i + 1, loc="RayTracer.java:611")

    def oracle(self, result: RunResult) -> Optional[str]:
        """Classify the run's symptom, or None for a clean run."""
        if abs(self.checksum.peek() - self.expected_checksum) > 1e-9:
            return "test fail"
        if self.rows_done.peek() != self.height:
            return "test fail"
        if self.cfg.bug == "race3" and self.maxdepth.peek() < self.maxdepth_updates:
            return "lost depth update"
        if self.cfg.bug == "race4" and self.idle.peek() < self.idle_updates:
            return "lost idle update"
        return None


@functools.lru_cache(maxsize=8)
def _reference_row_sums(width: int, height: int) -> Tuple[float, ...]:
    """Per-row sums of the serial ``width`` x ``height`` reference render.

    Like the JGF harness's fixed per-size validation checksum, they depend
    on the image size alone, so each process renders each size once; the
    tuple is immutable, so no run can alter what the next one reads.
    """
    probe = RayTracerApp()
    probe.width, probe.height = width, height
    return tuple(probe._render_row(y) for y in range(height))
