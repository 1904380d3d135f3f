"""Hybrid tensor × pipeline × data parallelism (paper Secs. 1 and 6).

The tensor-parallel dimension is part of the one measurement harness
(:mod:`repro.analysis.throughput` — a flat layout is ``TP = 1``), so
what lives here is the search over (TP, PP, DP) factorizations that
checks the paper's placement claim quantitatively.
"""

from __future__ import annotations

from ..cluster.presets import Cluster
from ..errors import ConfigError
from ..models.spec import ModelSpec
from .throughput import (
    HybridLayout,
    HybridRequest,
    ThroughputResult,
    # re-export: tests and benchmarks/e2e import it from this module
    measure_hybrid_throughput,  # noqa: F401
    measure_hybrid_throughput_batch,
)


def hybrid_search(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    total_batch: int,
    waves: tuple[int, ...] = (1, 2, 4),
    overlap: str = "simulated",
) -> list[tuple[HybridLayout, int, ThroughputResult]]:
    """Sweep (TP, PP, DP) factorizations of the cluster's device count.

    One batch call over every factorization; infeasible cells come back
    as :class:`~repro.errors.ConfigError` outcomes and are dropped.
    """
    n = cluster.num_devices
    requests = []
    tp = 1
    while tp <= cluster.gpus_per_node:
        rest = n // tp
        p = rest
        while p >= 2:
            d = rest // p
            if tp * p * d == n:
                b = max(1, min(total_batch // d, p))
                mb = max(1, (total_batch // d) // b)
                wave_opts = (waves if scheme == "hanayo" else (1,))
                requests += [
                    HybridRequest(scheme, cluster, model,
                                  HybridLayout(tp, p, d), b, w=w,
                                  microbatch_size=mb, overlap=overlap)
                    for w in wave_opts if 2 * w * p <= model.num_layers + 2]
            p //= 2
        tp *= 2
    return [(req.layout, req.w, outcome)
            for req, outcome in zip(
                requests, measure_hybrid_throughput_batch(requests))
            if not isinstance(outcome, ConfigError)]
