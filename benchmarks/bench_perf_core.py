#!/usr/bin/env python
"""Perf harness for the lowered-plan event core (``BENCH_core.json``).

Measures wall time and events/second of the measurement hot path on two
canonical scenarios and compares against the retained pre-refactor
interpreter (:func:`repro.runtime.execute_program_reference`):

* ``fig09_sweep`` — a full fig09-style grid pass (4 clusters × 2
  layouts × {GPipe, DAPPLE, Chimera-wave, Hanayo-2/4}) through
  ``measure_throughput`` with a warm plan cache, i.e. what one sweep
  worker does per cost-axis cell.  The reference path re-runs the
  pre-refactor pipeline per cell: schedule build + program compilation
  + dict-walking event loop.
* ``families_prefetch`` — the raw event core on 8 schedule families ×
  prefetch on/off (abstract costs, P = B = 8): ``execute_plan`` over a
  pre-lowered plan vs the reference interpreter over the same program.
* ``fig09_batched`` — the same fig09 grid measured through
  ``measure_throughput_batch``: cells sharing a structure become lanes
  of one lockstep batch (``runtime/batched.py``), vs the reference
  per-cell pipeline.  Every lane is asserted bit-identical to the
  scalar harness before timing starts.
* ``fig11_hybrid_batched`` — a hybrid DP x TP grid (2 schemes x 4
  (TP, PP, DP) layouts x 16 clusters) through
  ``measure_hybrid_throughput_batch``, vs the pre-batching per-cell
  hybrid pipeline (schedule build + TP sharding + program compilation
  + ``with_tp_sync`` + reference core).  Lanes are parity-probed
  against scalar ``measure_hybrid_throughput`` first.
* ``contention_batched`` — ``contention=True`` lanes through the
  vectorized lockstep stepper vs a scalar ``execute_plan`` loop over
  the same plans.  The grid is restricted to shapes the stepper keeps
  in lockstep (wire grant order = structural order); the probe asserts
  **zero** scalar fallbacks before timing, so a regression that
  silently de-batches contention lanes fails loudly here.
* ``contention_divergent`` — contention lanes whose wire grant orders
  genuinely reorder across the microbatch axis, i.e. the shapes the
  lockstep stepper must refuse.  These ride the time-ordered vectorized
  replay (cohort pool over per-lane event cursors); the probe asserts
  zero scalar fallbacks, full recovered-lane accounting, per-lane
  bit-parity with the scalar core *and* real order divergence across
  the grid before timing.

Usage::

    python benchmarks/bench_perf_core.py            # run + print
    python benchmarks/bench_perf_core.py --write    # refresh baseline
    python benchmarks/bench_perf_core.py --check    # CI gate

``--check`` fails (exit 1) when a scenario's **speedup vs reference**
regresses more than :data:`REGRESSION_TOLERANCE` against the committed
``BENCH_core.json``, or when the fig09 speedup drops below the
:data:`SPEEDUP_FLOOR` the lowering refactor is required to hold.  The
speedup ratio is the machine-portable signal (both sides run in the
same process on the same data), so the gate works on CI runners of any
speed; absolute events/second is compared too but only *warns* when it
drifts, since it tracks the baseline host's hardware.  Baseline
protocol: see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

if __package__ is None or __package__ == "":  # direct script invocation
    _src = pathlib.Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

BASELINE_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_core.json"

#: --check fails when events/s or speedup fall below (1 - this) x baseline
REGRESSION_TOLERANCE = 0.30

#: the refactor's acceptance floor: fig09 must stay >= this much faster
#: than the pre-refactor core
SPEEDUP_FLOOR = 3.0

#: the batched-execution acceptance floor: the lockstep fig09 pass must
#: stay >= this much faster than the pre-refactor per-cell pipeline
BATCHED_SPEEDUP_FLOOR = 20.0

#: cross-structure batching floors: the hybrid DP x TP grid must stay
#: >= 8x faster than the pre-batching per-cell hybrid pipeline, and the
#: vectorized-contention grid >= 5x faster than the scalar contention
#: core looped over the same lanes
HYBRID_BATCHED_FLOOR = 8.0
CONTENTION_BATCHED_FLOOR = 5.0

#: time-ordered replay floor: the wire-divergent contention grid (the
#: lanes the lockstep stepper refuses) must stay >= 5x faster than the
#: scalar contention core looped over the same lanes
CONTENTION_DIVERGENT_FLOOR = 5.0

#: timing repeats (best-of is reported, to shed scheduler noise)
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    # collector pauses land inside individual repeats and best-of can't
    # shed them when the measured section is only tens of milliseconds,
    # so timing runs with gc parked (state restored afterwards)
    best = None
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
    finally:
        if was_enabled:
            gc.enable()
    return best


# -- scenario: fig09 sweep cells --------------------------------------------


def _fig09_cells():
    from repro.cluster import all_clusters

    cells = []
    for cluster in all_clusters(8):
        for p, d in ((8, 1), (4, 2)):
            b = 8 // d
            for scheme, w in (("gpipe", 1), ("dapple", 1),
                              ("chimera-wave", 1), ("hanayo", 2),
                              ("hanayo", 4)):
                cells.append((scheme, cluster, p, b, d, w))
    return cells


def _run_fig09_pass(model, cells) -> None:
    from repro.analysis import measure_throughput

    for scheme, cluster, p, b, d, w in cells:
        measure_throughput(scheme, cluster, model, p=p,
                           num_microbatches=b, d=d, w=w,
                           microbatch_size=1)


def _run_fig09_reference_pass(model, cells) -> None:
    """The pre-refactor per-cell pipeline, cell for cell.

    Rebuilds schedule + program every call and interprets the rich IR
    with the reference core — exactly what ``measure_throughput`` did
    before the lowering refactor.
    """
    from repro.analysis import ClusterCosts, compile_cluster_program
    from repro.analysis.throughput import throughput_from_simulation
    from repro.config import PipelineConfig, RunConfig
    from repro.models.costs import stage_costs
    from repro.runtime import execute_program_reference
    from repro.runtime.metrics import fold_events
    from repro.schedules import build_schedule

    run = RunConfig()
    for scheme, cluster, p, b, d, w in cells:
        cfg = PipelineConfig(scheme=scheme, num_devices=p,
                             num_microbatches=b, num_waves=w,
                             data_parallel=d, microbatch_size=1)
        schedule = build_schedule(cfg)
        costs = stage_costs(model, schedule.num_stages, cluster.device, 1)
        program = compile_cluster_program(schedule, cluster, costs, d=d,
                                          run=run)
        oracle = ClusterCosts(costs, cluster)
        ev = execute_program_reference(program, oracle, run)
        throughput_from_simulation(
            cfg, schedule, [(cluster, model, costs, "simulated")],
            fold_events(ev), [0], ring_p=p)


def bench_fig09() -> dict:
    from repro.analysis import plan_cache
    from repro.cluster import all_clusters
    from repro.models import bert_64

    model = bert_64()
    cells = _fig09_cells()
    plan_cache().clear()
    _run_fig09_pass(model, cells)        # warm the plan cache
    # the grid crosses every structure with every cluster, so one pass
    # executes each cached structure once per cluster
    actions = len(list(all_clusters(8))) * sum(
        e.plan.n_actions for e in plan_cache()._store.values())
    wall = _best_of(lambda: _run_fig09_pass(model, cells))
    ref_wall = _best_of(lambda: _run_fig09_reference_pass(model, cells))
    return {
        "cells": len(cells),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- scenario: fig09 grid through the lockstep batch path --------------------


def bench_fig09_batched() -> dict:
    from repro.analysis import (
        ThroughputRequest,
        measure_throughput,
        measure_throughput_batch,
        plan_cache,
    )
    from repro.cluster import all_clusters
    from repro.models import bert_64

    model = bert_64()
    cells = _fig09_cells()
    requests = [
        ThroughputRequest(scheme=scheme, cluster=cluster, model=model,
                          p=p, num_microbatches=b, d=d, w=w,
                          microbatch_size=1)
        for scheme, cluster, p, b, d, w in cells
    ]
    plan_cache().clear()
    outcomes = measure_throughput_batch(requests)  # warm + parity probe
    # every lane must be *bit-identical* to the scalar harness; a batch
    # path that drifts would make this a benchmark of the wrong code
    for cell, out in zip(cells, outcomes):
        scheme, cluster, p, b, d, w = cell
        scalar = measure_throughput(scheme, cluster, model, p=p,
                                    num_microbatches=b, d=d, w=w,
                                    microbatch_size=1)
        if (out.seq_per_s, out.peak_mem_bytes, out.sync_s) != \
                (scalar.seq_per_s, scalar.peak_mem_bytes, scalar.sync_s):
            raise AssertionError(f"batched != scalar for {cell}")
    actions = len(list(all_clusters(8))) * sum(
        e.plan.n_actions for e in plan_cache()._store.values())
    # the measured section is ~25 ms, an order of magnitude shorter
    # than the other scenarios', so extra repeats are cheap and the
    # best-of needs them to converge under scheduler noise
    wall = _best_of(lambda: measure_throughput_batch(requests),
                    repeats=3 * REPEATS)
    ref_wall = _best_of(lambda: _run_fig09_reference_pass(model, cells))
    return {
        "cells": len(cells),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- scenario: hybrid DP x TP grid through the lockstep batch path ------------


def _fig11_cells():
    """A fig11-style hybrid grid: every (scheme, layout) crosses 16
    clusters, so each structural group carries 16 cost-only lanes."""
    from repro.cluster import make_fc, make_pc

    clusters = [factory(size)
                for size in (16, 24, 32, 48, 64, 96, 128, 192)
                for factory in (make_fc, make_pc)]
    cells = []
    for scheme, w in (("dapple", 1), ("hanayo", 2)):
        for tp, p, d in ((2, 4, 2), (4, 2, 2), (2, 2, 4), (4, 4, 1)):
            for cluster in clusters:
                cells.append((scheme, cluster, tp, p, d, 32, w))
    return cells


def _run_fig11_reference_pass(model, cells) -> None:
    """The pre-batching per-cell hybrid pipeline, cell for cell.

    Rebuilds the schedule, shards costs over the TP group, compiles the
    cluster program (+ TP boundary collectives) and interprets it with
    the reference core — what ``measure_hybrid_throughput`` amounted to
    before the lowering + batching refactors."""
    from repro.actions.collectives import with_tp_sync
    from repro.analysis import (
        ClusterCosts,
        HybridLayout,
        apply_tensor_parallel,
        compile_cluster_program,
        tp_rank_groups,
    )
    from repro.analysis.throughput import throughput_from_simulation
    from repro.config import PipelineConfig, RunConfig
    from repro.models.costs import stage_costs
    from repro.runtime import execute_program_reference
    from repro.runtime.metrics import fold_events
    from repro.schedules import build_schedule

    run = RunConfig()
    for scheme, cluster, tp, p, d, b, w in cells:
        layout = HybridLayout(tp=tp, p=p, d=d)
        cfg = PipelineConfig(scheme=scheme, num_devices=p,
                             num_microbatches=b, num_waves=w,
                             data_parallel=d, microbatch_size=1)
        schedule = build_schedule(cfg)
        base = stage_costs(model, schedule.num_stages, cluster.device, 1)
        layers_per_stage = (model.num_layers + 2) / schedule.num_stages
        costs = apply_tensor_parallel(base, cluster, model, tp, 1,
                                      layers_per_stage,
                                      include_comm=False)
        program = compile_cluster_program(schedule, cluster, costs, d=d,
                                          run=run, spacing=tp)
        program = with_tp_sync(program, tp_rank_groups(cluster, layout),
                               nbytes=model.boundary_bytes(1),
                               count_per_pass=2.0 * layers_per_stage)
        oracle = ClusterCosts(costs, cluster, tp)
        ev = execute_program_reference(program, oracle, run)
        throughput_from_simulation(
            cfg, schedule, [(cluster, model, costs, "simulated")],
            fold_events(ev), [0], ring_p=p * tp)


def bench_fig11_hybrid_batched() -> dict:
    from repro.analysis import (
        HybridLayout,
        HybridRequest,
        measure_hybrid_throughput,
        measure_hybrid_throughput_batch,
        plan_cache,
    )
    from repro.models import bert_64

    model = bert_64()
    cells = _fig11_cells()
    requests = [
        HybridRequest(scheme=scheme, cluster=cluster, model=model,
                      layout=HybridLayout(tp=tp, p=p, d=d),
                      num_microbatches=b, w=w, microbatch_size=1)
        for scheme, cluster, tp, p, d, b, w in cells
    ]
    plan_cache().clear()
    outcomes = measure_hybrid_throughput_batch(requests)  # warm + probe
    # every lane must be bit-identical to the scalar hybrid harness
    for cell, out in zip(cells, outcomes):
        scheme, cluster, tp, p, d, b, w = cell
        scalar = measure_hybrid_throughput(
            scheme, cluster, model, HybridLayout(tp=tp, p=p, d=d), b,
            w=w, microbatch_size=1)
        if (out.seq_per_s, out.peak_mem_bytes, out.sync_s) != \
                (scalar.seq_per_s, scalar.peak_mem_bytes, scalar.sync_s):
            raise AssertionError(f"batched != scalar for {cell}")
    # 16 clusters per (scheme, layout) group: one pass executes each
    # cached hybrid structure once per cluster (cluster *objects* —
    # preset names collide across sizes)
    lanes_per_group = len({id(c) for _s, c, *_rest in cells})
    actions = lanes_per_group * sum(
        e.plan.n_actions for e in plan_cache()._store.values())
    wall = _best_of(lambda: measure_hybrid_throughput_batch(requests))
    ref_wall = _best_of(lambda: _run_fig11_reference_pass(model, cells))
    return {
        "cells": len(cells),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- scenario: contention=True lanes through the vectorized stepper -----------


def _contention_plans():
    """Cluster-concrete lanes the lockstep contention path keeps in the
    batch (wire grant order = structural order for these shapes;
    hanayo-style interleavings on shared-link topologies diverge and
    ride the time-ordered replay instead — ``contention_divergent``).
    Eight microbatch sizes per cluster make the cost-only lane axis."""
    from repro.actions import ExecutablePlan
    from repro.analysis import ClusterCosts, compile_cluster_program
    from repro.cluster import make_fc, make_pc, make_tacc, make_tc
    from repro.config import PipelineConfig
    from repro.models import bert_64
    from repro.models.costs import stage_costs
    from repro.schedules import build_schedule

    grid = [
        ("gpipe", 8, 1, 1,
         [make_fc(8), make_fc(16), make_pc(8), make_pc(16),
          make_tacc(8), make_tacc(16), make_tc(8), make_tc(16)]),
        ("dapple", 8, 1, 1,
         [make_fc(8), make_fc(16), make_tc(8), make_tc(16)]),
        ("dapple", 4, 1, 2,       # DP rings under wire arbitration
         [make_fc(8), make_fc(16)]),
    ]
    model = bert_64()
    plans = []
    for scheme, p, w, d, clusters in grid:
        cfg = PipelineConfig(scheme=scheme, num_devices=p,
                             num_microbatches=16, num_waves=w,
                             data_parallel=d)
        sched = build_schedule(cfg)
        for cluster in clusters:
            for mb in range(1, 9):
                costs = stage_costs(model, sched.num_stages,
                                    cluster.device, mb)
                program = compile_cluster_program(sched, cluster, costs,
                                                  d=d)
                oracle = ClusterCosts(costs, cluster)
                plans.append(ExecutablePlan.lower(program).retime(oracle))
    return plans


def bench_contention_batched() -> dict:
    from repro import profiling
    from repro.config import RunConfig
    from repro.runtime import execute_plan
    from repro.runtime.batched import execute_many
    from repro.runtime.metrics import fold_events

    plans = _contention_plans()
    run = RunConfig(contention=True)
    items = [(plan, None) for plan in plans]
    stats = profiling.batching_stats()
    batches, scalar_cells = stats.batches, stats.scalar_cells
    batch = execute_many(items, run)  # warm + probe
    # the grid must stay fully vectorized: a lane silently de-batching
    # (wire-order divergence, congruence regression) re-runs the scalar
    # core and would turn this into a benchmark of the wrong code
    if stats.scalar_cells != scalar_cells or stats.batches == batches:
        raise AssertionError(
            f"contention lanes fell back to scalar: "
            f"{stats.fallback_reasons}")
    for k, (plan, err) in enumerate(zip(plans, batch.errors)):
        if err is not None:
            raise AssertionError(f"unexpected OOM in {plan.name}")
        if batch.fold.row(k) != fold_events(
                execute_plan(plan, run, detail="lean")).row(0):
            raise AssertionError(f"batched != scalar for {plan.name}")
    actions = sum(plan.n_actions for plan in plans)

    def scalar_pass():
        for plan in plans:
            execute_plan(plan, run, detail="lean")

    wall = _best_of(lambda: execute_many(items, run),
                    repeats=3 * REPEATS)
    ref_wall = _best_of(scalar_pass)
    return {
        "cells": len(plans),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- scenario: wire-divergent contention lanes, time-ordered replay -----------


def _divergent_plans():
    """One hanayo-2 structure retimed across 256 microbatch sizes.

    Compute scales with the microbatch but the wire launch latency does
    not, so lane grant orders genuinely reorder across the axis — the
    shapes the lockstep stepper must refuse and the time-ordered replay
    recovers.  One shared structure keeps the cohort pool dense, which
    is the replay's intended operating point (a sweep's cost axis)."""
    from repro.actions import ExecutablePlan
    from repro.analysis import ClusterCosts, compile_cluster_program
    from repro.cluster import make_fc
    from repro.config import PipelineConfig
    from repro.models import bert_64
    from repro.models.costs import stage_costs
    from repro.schedules import build_schedule

    model = bert_64()
    cluster = make_fc(16)
    cfg = PipelineConfig(scheme="hanayo", num_devices=4,
                         num_microbatches=16, num_waves=2,
                         data_parallel=2)
    sched = build_schedule(cfg)
    base = stage_costs(model, sched.num_stages, cluster.device, 1)
    program = compile_cluster_program(sched, cluster, base, d=2)
    plans = []
    for mb in range(1, 257):
        costs = stage_costs(model, sched.num_stages, cluster.device, mb)
        oracle = ClusterCosts(costs, cluster)
        plans.append(ExecutablePlan.lower(program).retime(oracle))
    return plans


def _span_order(result) -> tuple:
    """The lane's global compute order: span ids merged by start time."""
    events = []
    for dev, row in result.timeline.spans.items():
        for j, top in enumerate(row):
            events.append((top.start, str(dev), j))
    events.sort()
    return tuple((dev, j) for _at, dev, j in events)


def bench_contention_divergent() -> dict:
    from repro import profiling
    from repro.config import RunConfig
    from repro.runtime import execute_plan
    from repro.runtime.batched import execute_many
    from repro.runtime.metrics import fold_events

    plans = _divergent_plans()
    run = RunConfig(contention=True)
    items = [(plan, None) for plan in plans]
    stats = profiling.batching_stats()
    scalar_cells = stats.scalar_cells
    recovered = stats.recovered_lanes
    batch = execute_many(items, run)  # warm + probe
    # every lane must ride the time-ordered replay: zero scalar
    # fallbacks, and the recovered-lane counter must account for the
    # whole grid — a regression that quietly de-batches divergent
    # contention lanes fails here before any timing starts
    if stats.scalar_cells != scalar_cells:
        raise AssertionError(
            f"divergent contention lanes fell back to scalar: "
            f"{stats.fallback_reasons}")
    if stats.recovered_lanes - recovered < len(plans):
        raise AssertionError(
            f"only {stats.recovered_lanes - recovered} of {len(plans)} "
            f"lanes took the time-ordered replay")
    orders = set()
    for k, (plan, err) in enumerate(zip(plans, batch.errors)):
        if err is not None:
            raise AssertionError(f"unexpected OOM in {plan.name}")
        want = execute_plan(plan, run, detail="lean")
        if batch.fold.row(k) != fold_events(want).row(0):
            raise AssertionError(f"batched != scalar for {plan.name}")
        orders.add(_span_order(want))
    # the grid must actually diverge — identical grant orders would make
    # this a second lockstep benchmark under a misleading name
    if len(orders) < 2:
        raise AssertionError("grid is not wire-divergent: all lanes "
                             "share one global grant order")
    actions = sum(plan.n_actions for plan in plans)

    def scalar_pass():
        for plan in plans:
            execute_plan(plan, run, detail="lean")

    wall = _best_of(lambda: execute_many(items, run),
                    repeats=3 * REPEATS)
    ref_wall = _best_of(scalar_pass)
    return {
        "cells": len(plans),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- scenario: 8 families x prefetch, raw event core -------------------------


def _family_plans():
    from repro.actions import ExecutablePlan, compile_program
    from repro.config import CostConfig, PipelineConfig
    from repro.runtime import AbstractCosts
    from repro.schedules import build_schedule

    families = [
        ("gpipe", {}), ("dapple", {}), ("interleaved", {"num_waves": 2}),
        ("gems", {}), ("chimera", {}), ("chimera-wave", {}),
        ("hanayo", {"num_waves": 2}), ("async-1f1b", {}),
    ]
    out = []
    for scheme, kw in families:
        for prefetch in (True, False):
            cfg = PipelineConfig(scheme=scheme, num_devices=8,
                                 num_microbatches=8, **kw)
            sched = build_schedule(cfg)
            program = compile_program(sched, prefetch=prefetch)
            costs = AbstractCosts(CostConfig(t_c=0.2), 8, sched.num_stages)
            out.append((program, costs,
                        ExecutablePlan.lower(program, costs)))
    return out


def bench_families() -> dict:
    from repro.config import RunConfig
    from repro.runtime import execute_plan, execute_program_reference

    triples = _family_plans()
    run = RunConfig()
    actions = sum(plan.n_actions for _p, _c, plan in triples)

    def new_pass():
        for _program, _costs, plan in triples:
            execute_plan(plan, run)

    def ref_pass():
        for program, costs, _plan in triples:
            execute_program_reference(program, costs, run)

    new_pass()  # warm (fills lazy duration columns)
    wall = _best_of(new_pass)
    ref_wall = _best_of(ref_pass)
    return {
        "cells": len(triples),
        "actions_per_pass": actions,
        "wall_s": round(wall, 6),
        "events_per_s": round(actions / wall, 1),
        "reference_wall_s": round(ref_wall, 6),
        "speedup_vs_reference": round(ref_wall / wall, 3),
    }


# -- driver -------------------------------------------------------------------


SCENARIOS = {
    "fig09_sweep": bench_fig09,
    "families_prefetch": bench_families,
    "fig09_batched": bench_fig09_batched,
    "fig11_hybrid_batched": bench_fig11_hybrid_batched,
    "contention_batched": bench_contention_batched,
    "contention_divergent": bench_contention_divergent,
}


def run_all() -> dict:
    # version 4: contention_divergent joins the baseline (time-ordered
    # vectorized replay of wire-divergent contention lanes)
    return {"version": 4,
            "scenarios": {name: fn() for name, fn in SCENARIOS.items()}}


def report(payload: dict) -> str:
    lines = ["perf core benchmark (lowered plan vs reference interpreter)"]
    for name, s in payload["scenarios"].items():
        lines.append(
            f"  {name:20s} {s['cells']:3d} cells  "
            f"{s['events_per_s']:12,.0f} events/s  "
            f"wall {s['wall_s'] * 1e3:8.1f} ms  "
            f"ref {s['reference_wall_s'] * 1e3:8.1f} ms  "
            f"speedup {s['speedup_vs_reference']:5.2f}x"
        )
    return "\n".join(lines)


def check(payload: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """``(failures, warnings)`` vs the committed baseline.

    Failures gate CI: the machine-portable speedup ratio regressing
    past the tolerance, or fig09 dropping under the absolute floor.
    Absolute events/s drift only warns — it tracks the baseline host's
    hardware, not the code (docs/performance.md).
    """
    problems: list[str] = []
    warnings: list[str] = []
    floor = 1.0 - REGRESSION_TOLERANCE
    for name, s in payload["scenarios"].items():
        base = baseline.get("scenarios", {}).get(name)
        if base is None:
            problems.append(f"{name}: no committed baseline entry")
            continue
        if s["events_per_s"] < floor * base["events_per_s"]:
            warnings.append(
                f"{name}: events/s {s['events_per_s']:,.0f} is below "
                f"{floor:.0%} of the baseline host's "
                f"{base['events_per_s']:,.0f} (machine-dependent; "
                "gated via the speedup ratio instead)"
            )
        if (s["speedup_vs_reference"]
                < floor * base["speedup_vs_reference"]):
            problems.append(
                f"{name}: speedup vs reference regressed "
                f"{s['speedup_vs_reference']:.2f}x < {floor:.0%} of "
                f"baseline {base['speedup_vs_reference']:.2f}x"
            )
    fig09 = payload["scenarios"]["fig09_sweep"]["speedup_vs_reference"]
    if fig09 < SPEEDUP_FLOOR:
        problems.append(
            f"fig09_sweep: speedup {fig09:.2f}x below the required "
            f"{SPEEDUP_FLOOR:.0f}x floor"
        )
    batched = payload["scenarios"]["fig09_batched"][
        "speedup_vs_reference"]
    if batched < BATCHED_SPEEDUP_FLOOR:
        problems.append(
            f"fig09_batched: speedup {batched:.2f}x below the required "
            f"{BATCHED_SPEEDUP_FLOOR:.0f}x floor"
        )
    hybrid = payload["scenarios"]["fig11_hybrid_batched"][
        "speedup_vs_reference"]
    if hybrid < HYBRID_BATCHED_FLOOR:
        problems.append(
            f"fig11_hybrid_batched: speedup {hybrid:.2f}x below the "
            f"required {HYBRID_BATCHED_FLOOR:.0f}x floor"
        )
    contention = payload["scenarios"]["contention_batched"][
        "speedup_vs_reference"]
    if contention < CONTENTION_BATCHED_FLOOR:
        problems.append(
            f"contention_batched: speedup {contention:.2f}x below the "
            f"required {CONTENTION_BATCHED_FLOOR:.0f}x floor"
        )
    divergent = payload["scenarios"]["contention_divergent"][
        "speedup_vs_reference"]
    if divergent < CONTENTION_DIVERGENT_FLOOR:
        problems.append(
            f"contention_divergent: speedup {divergent:.2f}x below the "
            f"required {CONTENTION_DIVERGENT_FLOOR:.0f}x floor"
        )
    return problems, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"refresh {BASELINE_PATH.name}")
    mode.add_argument("--check", action="store_true",
                      help="fail on >30%% regression vs the committed "
                           "baseline")
    args = parser.parse_args(argv)

    payload = run_all()
    print(report(payload))
    if args.write:
        BASELINE_PATH.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if args.check:
        try:
            baseline = json.loads(BASELINE_PATH.read_text())
        except FileNotFoundError:
            print(f"error: no committed baseline at {BASELINE_PATH}",
                  file=sys.stderr)
            return 1
        problems, warnings = check(payload, baseline)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"speedup within {REGRESSION_TOLERANCE:.0%} of the "
              f"committed baseline; floors held (fig09 "
              f"{SPEEDUP_FLOOR:.0f}x, batched {BATCHED_SPEEDUP_FLOOR:.0f}x, "
              f"hybrid {HYBRID_BATCHED_FLOOR:.0f}x, contention "
              f"{CONTENTION_BATCHED_FLOOR:.0f}x, divergent "
              f"{CONTENTION_DIVERGENT_FLOOR:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
