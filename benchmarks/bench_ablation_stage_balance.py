"""Ablation — stage balance (DESIGN.md: why costs default to balanced).

The paper's analysis assumes every stage costs ``T_F / (S/P)``.  Real
contiguous-layer partitions of a 66-layer stack into 2WP stages leave a
residual imbalance that hits wave schedules hardest (their critical path
crosses every stage 2W times).  This ablation quantifies the gap
between the balanced idealisation and the greedy partition, motivating
the library's default and the per-figure calibration note.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.config import PipelineConfig
from repro.models import A100_40G, bert_64, stage_costs
from repro.runtime import ConcreteCosts, bubble_stats, simulate
from repro.schedules import build_schedule

from _helpers import gap, write_result


def bubble(scheme: str, w: int, balanced: bool) -> float:
    p = b = 8
    cfg = PipelineConfig(scheme=scheme, num_devices=p, num_microbatches=b,
                         num_waves=w)
    sched = build_schedule(cfg)
    costs = stage_costs(bert_64(), sched.num_stages, A100_40G,
                        balanced=balanced)
    res = simulate(sched, ConcreteCosts(costs))
    return bubble_stats(res.timeline).bubble_ratio


def compute():
    out = {}
    for scheme, w in [("gpipe", 1), ("dapple", 1), ("hanayo", 1),
                      ("hanayo", 2), ("hanayo", 4)]:
        out[(scheme, w)] = (bubble(scheme, w, True),
                            bubble(scheme, w, False))
    return out


def test_ablation_stage_balance(benchmark):
    data = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for (scheme, w), (bal, unbal) in sorted(data.items()):
        label = scheme + (f"(w={w})" if scheme == "hanayo" else "")
        rows.append([label, f"{bal * 100:.1f}%", f"{unbal * 100:.1f}%",
                     f"{(unbal - bal) * 100:+.1f}pp"])
    write_result("ablation_stage_balance", format_table(
        ["schedule", "balanced stages", "greedy partition", "penalty"],
        rows,
        title="Ablation — stage balance, BERT-64 on A100 (P=B=8, no comm)",
    ))

    for (scheme, w), (bal, unbal) in data.items():
        assert unbal >= bal - 1e-9, (scheme, w)
    # imbalance costs the fine-grained wave pipeline more than GPipe
    gpipe_pen = data[("gpipe", 1)][1] - data[("gpipe", 1)][0]
    h4_pen = data[("hanayo", 4)][1] - data[("hanayo", 4)][0]
    assert h4_pen > gpipe_pen
