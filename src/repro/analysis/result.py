"""The measurement record type, importable without the simulator.

:class:`ThroughputResult` is what the harness in
:mod:`repro.analysis.throughput` produces and what the sweep layer
stores, tabulates and exports.  It lives apart from the harness — and
imports nothing heavier than :mod:`repro.config` — so that reading
cached results (``repro sweep`` against a warm cache, a figure
regeneration) never loads the schedule → action → runtime stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PipelineConfig

#: accepted values of the ``overlap`` knob
OVERLAP_MODES = ("simulated", "model")


@dataclass
class ThroughputResult:
    """One measured configuration."""

    config: PipelineConfig
    cluster_name: str
    model_name: str
    seq_per_s: float | None          # None ⇔ OOM
    bubble_ratio: float | None
    peak_mem_bytes: float | None
    iteration_s: float | None
    oom_device: int | None = None
    #: True when the static residency bytes alone exceeded capacity —
    #: the cell was rejected in O(P) without entering the event loop.
    #: OOM cells with ``False`` were aborted mid-simulation instead.
    statically_pruned: bool = False
    #: gradient-sync seconds the busiest device spends in ring steps
    #: (0 for D == 1)
    sync_s: float = 0.0
    #: gradient-sync seconds that extend the iteration past the compute
    #: makespan — the part pipeline bubbles could *not* hide
    sync_exposed_s: float = 0.0
    #: fraction of ``sync_s`` hidden under compute; None when there is
    #: no sync to hide (D == 1)
    sync_overlap: float | None = None
    #: closed-form ring upper bound (``dp_allreduce_seconds``), kept as
    #: a cross-check against the simulated ``sync_s``
    sync_model_s: float = 0.0
    #: "simulated" (overlap measured from events) or "model" (analytic
    #: ``ANALYTIC_DP_OVERLAP`` fallback)
    overlap_mode: str = "simulated"

    @property
    def oom(self) -> bool:
        return self.seq_per_s is None

    def describe(self) -> str:
        if self.oom:
            tag = "static" if self.statically_pruned else "runtime"
            return (f"{self.config.describe():40s} {self.cluster_name:5s} "
                    f"OOM (device {self.oom_device}, {tag})")
        text = (f"{self.config.describe():40s} {self.cluster_name:5s} "
                f"{self.seq_per_s:6.2f} seq/s  "
                f"bubble={self.bubble_ratio * 100:4.1f}%  "
                f"peak={self.peak_mem_bytes / 2**30:5.1f} GiB")
        if self.sync_overlap is not None:
            text += f"  sync-overlap={self.sync_overlap * 100:4.1f}%"
        return text
