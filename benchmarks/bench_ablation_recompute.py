"""Extension — activation checkpointing x pipeline schedule.

Recomputation (Sec. 6's memory-saving family) is orthogonal to the
schedule: it shrinks every live activation to one boundary tensor and
stretches ``T_B`` from ``2 T_F`` to ``3 T_F``.  Memory-wise it is a
**Program-level transform**: ``StageResources.with_recompute()``
re-annotates the same action lists with the checkpointed footprint
(only the cost oracle changes on the time side).  This bench maps the
interaction: checkpointing rescues GPipe from its OOMs at a uniform
~25-30% throughput tax, while Hanayo gets GPipe-class memory *without*
the recompute tax — the scheduling-beats-recomputation argument.
"""

from __future__ import annotations

from repro.actions import StageResources
from repro.analysis import format_table
from repro.cluster import make_tacc
from repro.config import PipelineConfig
from repro.models import bert_64, stage_costs
from repro.runtime import ClusterCosts, simulate
from repro.schedules import build_schedule

from _helpers import gap, write_result

P, B, MB = 8, 16, 3


def run(scheme: str, w: int, recompute: bool):
    cluster = make_tacc(P)
    cfg = PipelineConfig(scheme=scheme, num_devices=P, num_microbatches=B,
                         num_waves=w, microbatch_size=MB)
    sched = build_schedule(cfg)
    costs = stage_costs(bert_64(), sched.num_stages, cluster.device,
                        MB, recompute=recompute)
    # the time side (T_B -> 3 T_F) comes from the cost oracle; the
    # memory side is the resource transform on the full footprint
    resources = StageResources.from_stage_costs(
        stage_costs(bert_64(), sched.num_stages, cluster.device, MB))
    if recompute:
        resources = resources.with_recompute()
    res = simulate(sched, ClusterCosts(costs, cluster),
                   resources=resources)
    mem = res.memory
    seq_per_s = B * MB / res.makespan
    return seq_per_s, mem.highest_peak, mem.fits(cluster.device.memory_bytes)


def compute():
    out = {}
    for scheme, w in [("gpipe", 1), ("dapple", 1), ("hanayo", 2)]:
        for rc in (False, True):
            out[(scheme, w, rc)] = run(scheme, w, rc)
    return out


def test_ablation_recompute(benchmark):
    data = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for (scheme, w, rc), (tp, peak, fits) in sorted(data.items()):
        label = scheme + (f"(w={w})" if scheme == "hanayo" else "")
        rows.append([
            label, "ckpt" if rc else "full", f"{tp:.2f}",
            f"{peak / 2**30:.1f}", "fits" if fits else "OOM",
        ])
    write_result("ablation_recompute", format_table(
        ["schedule", "activations", "seq/s", "peak GiB", "40GB verdict"],
        rows,
        title=f"Ablation — activation checkpointing (P={P}, B={B}, "
              f"micro-batch {MB}, TACC A100-40G)",
    ))

    # checkpointing rescues GPipe's memory...
    assert not data[("gpipe", 1, False)][2]   # full GPipe OOMs
    assert data[("gpipe", 1, True)][2]        # checkpointed GPipe fits
    # ...at a throughput cost near the extra forward (20-35%)
    tax = 1 - data[("gpipe", 1, True)][0] / data[("gpipe", 1, False)][0]
    assert 0.15 < tax < 0.40
    # Hanayo fits *without* recompute and outruns checkpointed GPipe
    assert data[("hanayo", 2, False)][2]
    assert data[("hanayo", 2, False)][0] > data[("gpipe", 1, True)][0]
    # recompute slashes every scheme's peak
    for scheme, w in [("gpipe", 1), ("dapple", 1), ("hanayo", 2)]:
        assert data[(scheme, w, True)][1] < data[(scheme, w, False)][1]
