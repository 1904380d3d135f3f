"""The sweep executor: cache lookups, worker-pool fan-out, assembly.

:func:`run_sweep` takes a declarative :class:`~repro.sweep.spec.SweepSpec`
and produces a :class:`~repro.sweep.table.SweepTable`:

1. expand the spec to concrete grid cells,
2. resolve each cell against the on-disk cache (when one is given),
3. group the misses into work units — cells that share every
   *structural* axis (scheme, P, B, D, W, TP) and differ only in size
   and cost axes (micro-batch size, model, cluster) become one unit,
   measured by one ``measure`` call (a lone cell is a batch of one),
4. fan the units out over a ``multiprocessing`` pool (``workers > 1``)
   or evaluate them inline — process sharding keeps structural variety
   across workers, lockstep batching amortizes within one,
5. persist fresh results — including *infeasible* verdicts, so re-runs
   skip the whole grid — and assemble rows in spec order.

Every default measurement goes through this module's
``measure_hybrid_throughput_batch`` global, so tests can wrap it with a
call counter to prove that a warm cache performs **zero** simulator
work (and that multi-cell units really batch).  The simulator itself
(:mod:`repro.analysis.throughput` and the schedule → action → runtime
stack under it, NumPy included) is imported by the first *uncached*
unit — in a pool worker, by that worker's first unit — so a sweep
answered entirely from the cache never loads it.

Below the result cache sits a second, in-process reuse layer: the
measurement harness shares compiled programs + lowered
:class:`~repro.actions.ExecutablePlan` objects through
:func:`repro.analysis.plan_cache`, so cache-missing cells that differ
only in cost axes (the cluster) re-time one plan per structure instead
of recompiling — per worker process, since the cache is process-global.
``repro sweep --profile`` surfaces the per-group build/lower/simulate
split this produces.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ..errors import ConfigError
from .cache import (
    ResultCache,
    cache_key,
    infeasible_record,
    key_prefix,
    result_to_record,
)
from .spec import SweepPoint, SweepSpec
from .table import SweepRow, SweepStats, SweepTable

if TYPE_CHECKING:
    from ..analysis.throughput import HybridRequest

__all__ = [
    "MAX_WORKERS",
    "assemble_table",
    "evaluate_unit_requests",
    "point_key",
    "run_sweep",
    "spec_jobs",
    "unit_requests",
]

#: cap on pool size; one process per cell is never useful beyond this
MAX_WORKERS = 32


def measure_hybrid_throughput_batch(requests):
    """The harness.  Importing it loads the whole simulator, so that
    happens here — on the first uncached unit — not with this module."""
    from ..analysis import throughput
    return throughput.measure_hybrid_throughput_batch(requests)


def spec_jobs(spec: SweepSpec, indexed) -> list[tuple]:
    """Job tuples for ``(index, point)`` cells of ``spec``: the point,
    its cluster and model, and the spec's measurement options."""
    return [
        (i, point, spec.clusters[point.cluster_index],
         spec.models[point.model_index], spec.overlap,
         spec.enforce_memory, spec.capacity_bytes, spec.contention)
        for i, point in indexed
    ]


def unit_requests(unit: list[tuple]) -> list[HybridRequest]:
    """The measurement requests of one work unit, in job order."""
    from ..analysis.throughput import HybridLayout, HybridRequest
    return [
        HybridRequest(
            scheme=point.scheme, cluster=cluster, model=model,
            layout=HybridLayout(tp=point.tp, p=point.p, d=point.d),
            num_microbatches=point.num_microbatches, w=point.w,
            microbatch_size=point.microbatch_size,
            enforce_memory=enforce_memory, overlap=overlap,
            capacity_bytes=capacity_bytes, contention=contention,
        )
        for (_index, point, cluster, model, overlap, enforce_memory,
             capacity_bytes, contention) in unit
    ]


def evaluate_unit_requests(unit: list[tuple],
                           measure=None) -> list[tuple[int, dict]]:
    """Measure one work unit; must stay module-level (pool pickling).

    ``measure`` defaults to this module's global (so test wrappers and
    monkeypatches keep seeing every call); the serving layer passes its
    micro-batcher's submit method instead.  Infeasible verdicts come
    back as outcomes from the harness, so one rejected cell never
    aborts its unit, and a cell's record does not depend on the unit it
    was measured in (per-lane bit-identity is pinned by the
    batched-runtime tests).
    """
    measure = measure or measure_hybrid_throughput_batch
    outcomes = measure(unit_requests(unit))
    return [
        (job[0], infeasible_record(str(out))
         if isinstance(out, ConfigError) else result_to_record(out))
        for job, out in zip(unit, outcomes)
    ]


def _batch_units(misses: list[tuple]) -> list[list[tuple]]:
    """Group miss jobs into work units, preserving first-seen order.

    Cells agreeing on every structural axis — scheme, P, B, D, W and
    TP (the harness's shape-key axes plus run-config constants) — form
    one unit whatever their micro-batch size, model or cluster: those
    only size or time a shape, and the batched runtime's congruence
    grouping stacks equal-structure lanes across size bindings
    (distinct plan keys) into one lockstep batch.  So a unit is a
    shape.
    """
    units: list[list[tuple]] = []
    by_structure: dict[tuple, list[tuple]] = {}
    for job in misses:
        point = job[1]
        gkey = (point.scheme, point.p, point.num_microbatches,
                point.d, point.w, point.tp)
        group = by_structure.get(gkey)
        if group is None:
            group = by_structure[gkey] = []
            units.append(group)
        group.append(job)
    return units


def _key_prefix(spec: SweepSpec, cluster_index: int, model_index: int) -> str:
    """Everything a key holds but the cell's scheme and shape."""
    return key_prefix(
        spec.clusters[cluster_index], spec.models[model_index],
        overlap=spec.overlap, enforce_memory=spec.enforce_memory,
        capacity_bytes=spec.capacity_bytes, contention=spec.contention)


def point_key(spec: SweepSpec, point: SweepPoint,
              prefix: str | None = None) -> str:
    """Content-hash cache key for one cell of ``spec``.

    ``prefix`` is the precomputed :func:`~.cache.key_prefix` of the
    cell's (cluster, model) under ``spec``'s options.
    """
    return cache_key(
        point.scheme,
        spec.clusters[point.cluster_index],
        spec.models[point.model_index],
        p=point.p, d=point.d, w=point.w, tp=point.tp,
        num_microbatches=point.num_microbatches,
        microbatch_size=point.microbatch_size,
        prefix=prefix or _key_prefix(spec, point.cluster_index,
                                     point.model_index),
    )


def run_sweep(
    spec: SweepSpec,
    cache: ResultCache | None = None,
    workers: int | None = None,
    measure=None,
    progress=None,
) -> SweepTable:
    """Evaluate a sweep spec, reusing cached cells.

    ``workers=None`` or ``1`` evaluates inline (deterministic, easiest
    to debug and to instrument); ``workers > 1`` runs misses on a
    process pool.  Row order is the spec's expansion order either way.
    ``measure`` runs one unit's requests on either path (default: this
    module's harness global; the server passes its micro-batcher).
    ``progress(done, total)`` fires after each unit with the cells
    resolved so far, cache hits included, ending at ``(total, total)``.
    """
    points = spec.expand()
    stats = SweepStats(total=len(points))
    records: dict[int, tuple[dict, bool]] = {}

    keys: list[str | None] = [None] * len(points)
    misses: list[tuple[int, SweepPoint]] = []
    if cache is not None:
        # digested once per (cluster, model) instead of once per cell
        prefixes = {(ci, mi): _key_prefix(spec, ci, mi)
                    for ci in range(len(spec.clusters))
                    for mi in range(len(spec.models))}
    for i, point in enumerate(points):
        if cache is not None:
            keys[i] = point_key(
                spec, point,
                prefixes[point.cluster_index, point.model_index])
            hit = cache.get(keys[i])
            if hit is not None:
                records[i] = (hit, True)
                stats.cached += 1
                continue
        misses.append((i, point))

    if misses:
        def finish(unit_records: list[tuple[int, dict]]) -> None:
            # persist immediately so an interrupted sweep keeps every
            # cell that already finished
            for index, record in unit_records:
                records[index] = (record, False)
                if cache is not None:
                    cache.put(keys[index], record)
            if progress is not None:
                progress(len(records), len(points))

        evaluate = functools.partial(evaluate_unit_requests, measure=measure)
        units = _batch_units(spec_jobs(spec, misses))
        if workers is not None and workers > 1:
            import multiprocessing
            pool_size = min(workers, MAX_WORKERS, len(units))
            with multiprocessing.Pool(pool_size) as pool:
                for unit_records in pool.imap_unordered(evaluate, units):
                    finish(unit_records)
        else:
            for unit in units:
                finish(evaluate(unit))
        stats.computed += len(misses)

    return assemble_table(spec, points, records, stats=stats)


def assemble_table(
    spec: SweepSpec,
    points: list[SweepPoint],
    records: dict[int, tuple[dict, bool]],
    stats: SweepStats | None = None,
) -> SweepTable:
    """Fold per-point records into a :class:`SweepTable`, in spec order.

    The one assembly path: :func:`run_sweep` and the advisor both
    finish here, so an advise ranking and a sweep table of the same
    grid cannot drift in row content or stats accounting.  ``records``
    maps point index to ``(record, was_cached)``; ``stats`` carries the
    caller's computed/cached tallies (a fresh one is derived when
    omitted — every record then counts as computed).
    """
    if stats is None:
        stats = SweepStats(total=len(points), computed=len(records))
    rows: list[SweepRow] = []
    for i, point in enumerate(points):
        record, was_cached = records[i]
        if record.get("infeasible"):
            stats.infeasible += 1
            continue
        if record.get("statically_pruned"):
            stats.pruned += 1
        rows.append(SweepRow(
            scheme=point.scheme,
            cluster=spec.clusters[point.cluster_index].name,
            model=spec.models[point.model_index].name,
            p=point.p, d=point.d, w=point.w, tp=point.tp,
            num_microbatches=point.num_microbatches,
            microbatch_size=point.microbatch_size,
            total_batch=point.total_batch,
            record=record,
            cached=was_cached,
        ))
    return SweepTable(rows=rows, stats=stats)
