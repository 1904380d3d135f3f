"""Weak- and strong-scaling harnesses (paper Figs. 11 and 12).

* **Weak scaling** grows devices and total batch together (8→32 GPUs,
  batch 2→8 in the paper's units) and checks that throughput grows
  proportionally — parallel efficiency near 100%.
* **Strong scaling** fixes the batch (4, the Lonestar6 40 GB limit) and
  throws more GPUs at it; small per-pipeline micro-batch counts make
  bubbles — and scheme choice — matter most here, and GPipe/DAPPLE OOM
  at 8 GPUs just as the paper reports.

Both pick each scheme's best (P, D, W) per device count via the
Sec. 5.3 search.  Like the search itself, both harnesses run on the
:mod:`repro.sweep` engine and accept optional ``cache`` / ``workers``
arguments: a shared :class:`~repro.sweep.ResultCache` makes the twelve
``bench_fig*`` scripts stop recomputing each other's cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..models.spec import ModelSpec
from ..sweep.cache import ResultCache
from ..sweep.spec import layouts_for
from ..sweep.table import SweepRow
from .search import best_throughput


@dataclass(frozen=True)
class ScalingPoint:
    """Best configuration of one scheme at one device count."""

    devices: int
    scheme: str
    cell: SweepRow | None       # None ⇔ every config OOM'd or infeasible

    @property
    def throughput(self) -> float | None:
        return None if self.cell is None else self.cell.throughput


def _best(scheme: str, cluster, model: ModelSpec, devices: int,
          total_batch: int, target_microbatches: int | None,
          cache: ResultCache | None = None,
          workers: int | None = None) -> ScalingPoint:
    try:
        cell = best_throughput(
            scheme, cluster, model,
            layouts=layouts_for(devices),
            total_batch=total_batch,
            target_microbatches=target_microbatches,
            cache=cache, workers=workers,
        )
    except ConfigError:
        cell = None
    return ScalingPoint(devices=devices, scheme=scheme, cell=cell)


def weak_scaling(
    schemes: tuple[str, ...],
    cluster_factory,
    model: ModelSpec,
    device_counts: tuple[int, ...] = (8, 16, 32),
    base_batch: int = 8,
    target_microbatches: int | None = None,
    *,
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> dict[str, list[ScalingPoint]]:
    """Scale devices and total batch together: batch ∝ devices."""
    smallest = min(device_counts)
    out: dict[str, list[ScalingPoint]] = {s: [] for s in schemes}
    for devices in device_counts:
        total_batch = base_batch * devices // smallest
        cluster = cluster_factory(devices)
        for scheme in schemes:
            out[scheme].append(
                _best(scheme, cluster, model, devices, total_batch,
                      target_microbatches, cache, workers)
            )
    return out


def strong_scaling(
    schemes: tuple[str, ...],
    cluster_factory,
    model: ModelSpec,
    device_counts: tuple[int, ...] = (8, 16, 32),
    total_batch: int = 8,
    target_microbatches: int | None = None,
    *,
    cache: ResultCache | None = None,
    workers: int | None = None,
) -> dict[str, list[ScalingPoint]]:
    """Fixed total batch; more devices must split the same work."""
    out: dict[str, list[ScalingPoint]] = {s: [] for s in schemes}
    for devices in device_counts:
        cluster = cluster_factory(devices)
        for scheme in schemes:
            out[scheme].append(
                _best(scheme, cluster, model, devices, total_batch,
                      target_microbatches, cache, workers)
            )
    return out


def parallel_efficiency(points: list[ScalingPoint]) -> list[float]:
    """Throughput per device relative to the smallest configuration."""
    alive = [p for p in points if p.throughput]
    if not alive:
        return []
    base = alive[0]
    effs = []
    for p in alive[1:]:
        expected = base.throughput * p.devices / base.devices
        effs.append(p.throughput / expected)
    return effs


def speedup(points: list[ScalingPoint]) -> list[float]:
    """Throughput relative to the smallest device count (strong scaling)."""
    alive = [p for p in points if p.throughput]
    if not alive:
        return []
    base = alive[0].throughput
    return [p.throughput / base for p in alive]
