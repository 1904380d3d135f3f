"""Configuration search (paper Sec. 5.3 / Fig. 10).

For every scheme the paper searches the (pipeline size, data-parallel
size) grid — plus the wave count for Hanayo — and reports each cell's
throughput, marking OOM cells.  :func:`search_grid` reproduces that
table as a :class:`~repro.sweep.SweepTable`; :func:`best_throughput`
picks the winner the scaling figures use (``SweepTable.best``).

The search is **total-batch-centric**: a layout ``(P, D)`` splits the
job's ``total_batch`` sequences into ``D`` pipeline shards of
``total_batch / D`` sequences, which are then cut into micro-batches
with no remainder.  This keeps every cell processing the same work, so
throughputs are comparable — the fairness rule of Sec. 5.3 (see
:func:`repro.sweep.split_batch`, where the rule now lives).

Since the sweep-engine refactor these functions are thin wrappers over
:mod:`repro.sweep`: they accept optional ``cache`` and ``workers``
arguments that enable on-disk result reuse and multiprocessing fan-out
while keeping the original serial, uncached behaviour as the default.
"""

from __future__ import annotations

from ..cluster.presets import Cluster
from ..models.spec import ModelSpec
from ..sweep.cache import ResultCache
from ..sweep.engine import run_sweep
from ..sweep.spec import DEFAULT_WAVES, SweepSpec, feasible_waves, split_batch
from ..sweep.table import SweepRow, SweepTable

__all__ = [
    "DEFAULT_WAVES",
    "best_throughput",
    "feasible_waves",
    "search_grid",
    "split_batch",
]


def search_grid(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layouts: tuple[tuple[int, int], ...],
    total_batch: int,
    target_microbatches: int | None = None,
    waves: tuple[int, ...] = DEFAULT_WAVES,
    *,
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> SweepTable:
    """Evaluate a scheme over (P, D) layouts, searching waves for Hanayo.

    Infeasible cells (layout cannot host the batch fairly, or the model
    has too few layers for the stage count) are skipped, mirroring the
    paper's empty grid slots.  Runs on the :mod:`repro.sweep` engine;
    pass ``cache`` / ``workers`` to reuse results across calls or fan
    the grid out over processes.
    """
    spec = SweepSpec(
        schemes=(scheme,),
        clusters=(cluster,),
        models=(model,),
        layouts=tuple(layouts),
        total_batches=(total_batch,),
        waves=tuple(waves),
        target_microbatches=target_microbatches,
        skip_oversized=False,
    )
    return run_sweep(spec, cache=cache, workers=workers)


def best_throughput(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layouts: tuple[tuple[int, int], ...],
    total_batch: int,
    target_microbatches: int | None = None,
    waves: tuple[int, ...] = DEFAULT_WAVES,
    *,
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> SweepRow:
    """Search then pick, in one call (what the scaling figures do);
    :class:`ConfigError` when every cell OOMs."""
    return search_grid(scheme, cluster, model, layouts, total_batch,
                       target_microbatches, waves,
                       cache=cache, workers=workers).best()
