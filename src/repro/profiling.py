"""Lightweight phase timing for the measurement pipeline.

The CLI's ``--profile`` flag (``repro sweep --profile``, ``repro trace
--profile``) answers "where does a cell's wall time go?" with a
build / lower / simulate breakdown:

* **build** — schedule generation + cost-model lowering
  (``build_schedule`` / ``stage_costs``);
* **lower** — Program compilation + :class:`ExecutablePlan` lowering or
  re-timing (cache hits spend almost nothing here);
* **simulate** — the event loop itself.

Profiling is strictly opt-in and process-local: when disabled (the
default) the instrumentation points cost one attribute check.  The
harness functions report phases via :func:`phase`; drivers group them
into named cells via :func:`cell`; :func:`profiled` scopes a collection
run and returns the records.

>>> with profiled() as prof:
...     with cell("demo"):
...         with phase("build"):
...             pass
>>> [name for name, _ in prof.cells]
['demo']
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: phase display order in reports
PHASES = ("build", "lower", "simulate")

_active: "PhaseProfile | None" = None


@dataclass
class PhaseProfile:
    """Collected cells: ``(label, {phase: seconds})`` in finish order."""

    cells: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    _open: dict[str, float] | None = None

    def total(self, name: str) -> float:
        return sum(c.get(name, 0.0) for _, c in self.cells)

    def format(self, top: int | None = None) -> str:
        """Render the per-cell phase table (milliseconds)."""
        from .analysis.report import format_table

        cells = self.cells if top is None else self.cells[:top]
        rows = []
        for label, phases in cells:
            total = sum(phases.values())
            rows.append([label]
                        + [f"{phases.get(p, 0.0) * 1e3:8.2f}" for p in PHASES]
                        + [f"{total * 1e3:8.2f}"])
        rows.append(["TOTAL"]
                    + [f"{self.total(p) * 1e3:8.2f}" for p in PHASES]
                    + [f"{sum(sum(c.values()) for _, c in self.cells) * 1e3:8.2f}"])
        return format_table(
            ["cell"] + [f"{p} ms" for p in PHASES] + ["total ms"], rows,
            title="phase timing (build / lower / simulate per cell)",
        )


@contextmanager
def profiled():
    """Collect phases for the duration of the block.

    Yields the :class:`PhaseProfile`; nested use keeps the outermost
    collector (profiling is a driver concern, not a library one).
    """
    global _active
    if _active is not None:
        yield _active
        return
    prof = PhaseProfile()
    _active = prof
    try:
        yield prof
    finally:
        _active = None


@contextmanager
def cell(label: str):
    """Group subsequent :func:`phase` reports under one named cell."""
    prof = _active
    if prof is None or prof._open is not None:
        yield
        return
    phases: dict[str, float] = {}
    prof._open = phases
    try:
        yield
    finally:
        prof._open = None
        prof.cells.append((label, phases))


@contextmanager
def phase(name: str):
    """Attribute the block's wall time to ``name`` in the open cell."""
    prof = _active
    if prof is None or prof._open is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        acc = prof._open
        acc[name] = acc.get(name, 0.0) + (time.perf_counter() - t0)


@dataclass
class BatchingStats:
    """Process-lifetime counters for the batched execution layer.

    Unlike phase timing these are always on (plain counter bumps) so
    ``--profile`` runs can report how much work took the lockstep path
    versus the scalar fallback without instrumenting every call site.
    The serving layer's dispatcher threads all record here, so every
    mutation takes the lock (as :class:`ServeStats` does).
    """

    batches: int = 0
    lanes: int = 0
    scalar_cells: int = 0
    batched_s: float = 0.0
    scalar_s: float = 0.0
    #: lanes the wire-exact contention driver carried in-batch — work
    #: that once fell back scalar; counted *inside* the batched totals
    #: above, broken out so contention coverage is visible
    recovered_batches: int = 0
    recovered_lanes: int = 0
    recovered_s: float = 0.0
    #: contention-driver cohort splits: each one a wire grant the lanes
    #: of a cohort disagreed on (0 when every lane grants alike)
    splits: int = 0
    #: lane-count -> number of batches executed at that occupancy
    occupancy: dict[int, int] = field(default_factory=dict)
    #: why contention cells fell back scalar: reason -> cell count.
    #: The taxonomy (``narrow`` / ``zero-time``) makes batch-coverage
    #: regressions visible — a future change that silently de-batches a
    #: shape shows up here before it shows up in wall time.  Uncontended
    #: lanes never fall back: a lone one is a batch of one (occupancy 1).
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: reason -> wall seconds spent in that scalar fallback: a rare
    #: reason burning most of the time ranks above a frequent cheap one
    fallback_s: dict[str, float] = field(default_factory=dict)
    #: queries the serving layer answered from an identical in-flight
    #: query's result instead of executing anything (single-flight)
    dedup_hits: int = 0
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def record_batch(self, lanes: int, seconds: float) -> None:
        with self._lock:
            self.batches += 1
            self.lanes += lanes
            self.batched_s += seconds
            self.occupancy[lanes] = self.occupancy.get(lanes, 0) + 1

    def record_recovered(self, lanes: int, seconds: float,
                         splits: int = 0) -> None:
        """Count one contention-driver batch of ``lanes`` lanes whose
        cohorts split ``splits`` times.

        A contention batch *is* a batch — it bumps the batched totals
        and the occupancy histogram too, so occupancy keeps summing to
        every batched lane — and additionally the contention counters.
        """
        with self._lock:
            self.record_batch(lanes, seconds)
            self.recovered_batches += 1
            self.recovered_lanes += lanes
            self.recovered_s += seconds
            self.splits += splits

    def record_scalar(self, cells: int, seconds: float,
                      reason: str) -> None:
        with self._lock:
            self.scalar_cells += cells
            self.scalar_s += seconds
            self.fallback_reasons[reason] = \
                self.fallback_reasons.get(reason, 0) + cells
            self.fallback_s[reason] = \
                self.fallback_s.get(reason, 0.0) + seconds

    def record_dedup(self, queries: int = 1) -> None:
        with self._lock:
            self.dedup_hits += queries

    def reset(self) -> None:
        with self._lock:
            self.batches = 0
            self.lanes = 0
            self.scalar_cells = 0
            self.batched_s = 0.0
            self.scalar_s = 0.0
            self.recovered_batches = 0
            self.recovered_lanes = 0
            self.recovered_s = 0.0
            self.splits = 0
            self.occupancy.clear()
            self.fallback_reasons.clear()
            self.fallback_s.clear()
            self.dedup_hits = 0

    def describe(self) -> str:
        """One-line summary, lane-occupancy and fallback histograms."""
        hist = " ".join(f"{n}x{count}" for n, count in
                        sorted(self.occupancy.items()))
        reasons = " ".join(
            f"{name}={count}/{self.fallback_s.get(name, 0.0) * 1e3:.1f}ms"
            for name, count in sorted(self.fallback_reasons.items()))
        text = (f"batched execution: {self.batches} batches, "
                f"{self.lanes} lanes "
                f"({self.batched_s * 1e3:.1f} ms batched, "
                f"{self.scalar_cells} cells / "
                f"{self.scalar_s * 1e3:.1f} ms scalar); "
                f"occupancy [{hist}]; fallbacks [{reasons}]")
        if self.recovered_lanes:
            text += (f"; contention driver {self.recovered_lanes} lanes "
                     f"in {self.recovered_batches} batches "
                     f"({self.recovered_s * 1e3:.1f} ms, "
                     f"{self.splits} grant splits)")
        if self.dedup_hits:
            text += f"; dedup hits {self.dedup_hits}"
        return text


_batching = BatchingStats()


def batching_stats() -> BatchingStats:
    """The process-global batched-vs-scalar execution counters."""
    return _batching


def record_batch(lanes: int, seconds: float) -> None:
    """Count one lockstep batch of ``lanes`` lanes taking ``seconds``."""
    _batching.record_batch(lanes, seconds)


def record_recovered(lanes: int, seconds: float, splits: int = 0) -> None:
    """Count one contention-driver batch of ``lanes`` lanes."""
    _batching.record_recovered(lanes, seconds, splits)


def record_scalar(cells: int, seconds: float, reason: str) -> None:
    """Count ``cells`` cells executed through the scalar fallback.

    ``reason`` names why the contention driver was not taken —
    ``narrow`` (a contention group under ``MIN_CONTENTION_LANES``
    lanes, width 1 included) or ``zero-time`` — with wall time
    attributed per reason alongside the cell counts.  Every caller
    names its reason.
    """
    _batching.record_scalar(cells, seconds, reason)


#: per-kind latency samples retained for percentile estimates; the
#: reservoir keeps the most recent window so long-lived servers report
#: current behaviour, not their start-up transient
LATENCY_WINDOW = 4096


@dataclass
class ServeStats:
    """Counters for the serving layer (``repro serve``).

    Everything here is written from many threads — handler threads
    record query latencies, the micro-batch dispatcher records queue
    depth and dispatch occupancy — so every mutation takes the lock.
    ``describe()`` is what ``repro serve --profile`` prints at drain
    (alongside :func:`batching_stats` and the plan cache).
    """

    queries: int = 0
    errors: int = 0
    dedup_hits: int = 0
    #: deepest the micro-batch queue ever got
    max_queue_depth: int = 0
    #: dispatcher wake-ups that executed work
    dispatches: int = 0
    #: measurement lanes (grid cells) per dispatch -> dispatch count
    dispatch_occupancy: dict[int, int] = field(default_factory=dict)
    #: query kind ("advise" / "sweep") -> recent latency samples
    latencies: dict[str, list[float]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_query(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.queries += 1
            window = self.latencies.setdefault(kind, [])
            window.append(seconds)
            if len(window) > LATENCY_WINDOW:
                del window[: len(window) - LATENCY_WINDOW]

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_dedup(self) -> None:
        with self._lock:
            self.dedup_hits += 1
        _batching.record_dedup()

    def record_dispatch(self, lanes: int, queue_depth: int) -> None:
        with self._lock:
            self.dispatches += 1
            self.dispatch_occupancy[lanes] = \
                self.dispatch_occupancy.get(lanes, 0) + 1
            self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def percentile(self, kind: str, q: float) -> float | None:
        """The ``q``-quantile (0..1) of ``kind``'s recent latencies."""
        with self._lock:
            window = sorted(self.latencies.get(kind, ()))
        if not window:
            return None
        index = min(len(window) - 1, int(q * len(window)))
        return window[index]

    def snapshot(self) -> dict:
        """A JSON-safe view for the ``/stats`` endpoint."""
        with self._lock:
            kinds = {
                kind: len(window) for kind, window in self.latencies.items()
            }
            out = {
                "queries": self.queries,
                "errors": self.errors,
                "dedup_hits": self.dedup_hits,
                "max_queue_depth": self.max_queue_depth,
                "dispatches": self.dispatches,
                "dispatch_occupancy": {
                    str(n): c
                    for n, c in sorted(self.dispatch_occupancy.items())
                },
            }
        out["latency"] = {
            kind: {
                "samples": kinds[kind],
                "p50_ms": round(self.percentile(kind, 0.50) * 1e3, 3),
                "p99_ms": round(self.percentile(kind, 0.99) * 1e3, 3),
            }
            for kind in sorted(kinds)
        }
        return out

    def reset(self) -> None:
        with self._lock:
            self.queries = 0
            self.errors = 0
            self.dedup_hits = 0
            self.max_queue_depth = 0
            self.dispatches = 0
            self.dispatch_occupancy.clear()
            self.latencies.clear()

    def describe(self) -> str:
        """Multi-line summary: totals, occupancy histogram, percentiles."""
        snap = self.snapshot()
        hist = " ".join(f"{n}x{c}" for n, c in
                        snap["dispatch_occupancy"].items())
        lines = [
            f"serve: {snap['queries']} queries "
            f"({snap['errors']} errors, {snap['dedup_hits']} dedup hits), "
            f"{snap['dispatches']} dispatches, "
            f"max queue depth {snap['max_queue_depth']}; "
            f"dispatch occupancy [{hist}]"
        ]
        for kind, lat in snap["latency"].items():
            lines.append(
                f"  {kind}: {lat['samples']} sampled, "
                f"p50 {lat['p50_ms']:.1f} ms, p99 {lat['p99_ms']:.1f} ms")
        return "\n".join(lines)


_serve = ServeStats()


def serve_stats() -> ServeStats:
    """The process-global serving-layer counters."""
    return _serve
