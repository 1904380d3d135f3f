"""Lockstep batched execution parity (runtime/batched.py).

The batched stepper is only allowed to change *cost*, never meaning.
Its result is columnar — a lane-axis fold plus on-demand lane views —
and for every lane both must be bit-identical (``==`` not approx) to
running that lane alone through the scalar ``execute_plan``: the fold
row to the scalar accounting of that result, the ``lane(k)`` view to
all eight ``EventResult`` fields.  These tests pin that across every
schedule family × prefetch mode, under capacity enforcement with mixed
OOM lanes, with gradient-sync collectives compiled in, under
contention (the wire-exact contention driver), and for ragged
batch widths.
"""

from __future__ import annotations

import itertools

import pytest

from repro.actions import (
    ExecutablePlan,
    StageResources,
    compile_program,
)
from repro.actions.ops import CollectiveKind
from repro.analysis import ClusterCosts, compile_cluster_program
from repro.cluster import make_fc, make_pc, make_tacc
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import ConfigError, OutOfMemoryError, SchedulingError
from repro.models import tiny_model
from repro.models.costs import stage_costs
from repro.runtime import (
    AbstractCosts,
    PlanBatch,
    bubble_stats,
    execute_batch,
    execute_many,
    execute_plan,
)
from repro.runtime import batched
from repro.runtime.metrics import fold_events
from repro.schedules import build_schedule

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.events_ref import execute_program_reference

P = B = 4

#: four lanes with genuinely different arithmetic — asymmetric ratios,
#: zero comm, comm-dominated — so lockstep masking bugs cannot hide
#: behind lanes that agree numerically
LANE_COSTS = (
    CostConfig(t_f=1.0, t_b=2.0, t_c=0.25),
    CostConfig(t_f=1.3, t_b=2.1, t_c=0.1),
    CostConfig(t_f=0.7, t_b=1.9, t_c=0.5),
    CostConfig(t_f=1.0, t_b=1.0, t_c=0.0),
)


def lowered(scheme, kw, prefetch=True, resources=None):
    cfg = make_config(scheme, P, B, **kw)
    program = compile_program(build_schedule(cfg), prefetch=prefetch,
                              resources=resources)
    return ExecutablePlan.lower(program)


def lanes_for(plan, n=len(LANE_COSTS)):
    """``n`` retimes of one structure, cycling the varied cost table."""
    stages = plan.program.num_stages
    return [plan.retime(AbstractCosts(LANE_COSTS[i % len(LANE_COSTS)],
                                      P, stages))
            for i in range(n)]


def assert_result_equal(got, want):
    """All eight EventResult fields, exact equality."""
    assert got.timeline == want.timeline
    assert got.recv_wait == want.recv_wait
    assert got.comm == want.comm
    assert got.order == want.order
    assert got.mem_peak == want.mem_peak
    assert got.mem_events == want.mem_events
    assert got.collectives == want.collectives
    assert got.device_end == want.device_end


def reference_fold(result):
    """The six fold numbers by the scalar accounting, written out
    independently of ``fold_lanes`` (the loop version kept as oracle)."""
    per_device = {}
    for c in result.collectives:
        if c.op.kind is CollectiveKind.GRAD_SYNC:
            per_device[c.device] = per_device.get(c.device, 0.0) \
                + c.duration
    stats = bubble_stats(result.timeline)
    return (stats.makespan, stats.bubble_ratio, result.busy_end,
            max(per_device.values(), default=0.0), result.sync_done(),
            max(result.mem_peak.values(), default=0.0))


def assert_lane_equal(batch, k, want):
    """Lane ``k`` of a columnar result against the scalar result: fold
    row on every field, lane view on all eight fields."""
    assert batch.errors[k] is None
    assert fold_events(want).row(0) == reference_fold(want)
    assert batch.fold.row(k) == reference_fold(want)
    assert_result_equal(batch.lane(k), want)


def assert_batch_equal(batch, plans, run, caps=None):
    """Every lane against its scalar run; returns (n ok, n oom)."""
    ok = oom = 0
    for k, plan in enumerate(plans):
        cap = caps[k] if caps is not None else None
        try:
            want = execute_plan(plan, run, capacity_bytes=cap)
        except OutOfMemoryError as exc:
            oom += 1
            err = batch.errors[k]
            assert batch.lane(k) is None
            assert isinstance(err, OutOfMemoryError)
            assert (err.device, err.peak_bytes, err.capacity_bytes) \
                == (exc.device, exc.peak_bytes, exc.capacity_bytes)
            assert str(err) == str(exc)
        else:
            ok += 1
            assert_lane_equal(batch, k, want)
    return ok, oom


def assert_alone_equal(plan, run, cap=None):
    """``plan`` as a batch of one through ``execute_many``: one lockstep
    batch at occupancy 1 and no fallback; its fold row is the scalar
    lean fold, its view (or OOM) the scalar run's.  Returns (ok, oom)."""
    from repro import profiling

    stats = profiling.batching_stats()
    before = (stats.batches, stats.occupancy.get(1, 0), stats.scalar_cells,
              dict(stats.fallback_reasons))
    out = execute_many([(plan, cap)], run)
    assert (stats.batches, stats.occupancy.get(1, 0), stats.scalar_cells,
            stats.fallback_reasons) == \
        (before[0] + 1, before[1] + 1, before[2], before[3])
    if out.errors[0] is None:
        lean = execute_plan(plan, run, capacity_bytes=cap, detail="lean")
        assert out.fold.row(0) == fold_events(lean).row(0)
    return assert_batch_equal(out, [plan], run, [cap])


def contended(plans, run, caps=None):
    """All lanes straight through the contention driver."""
    ls = batched.lockstep_schedule(plans[0])
    return batched._execute_contended(
        ls, plans, [ls] * len(plans), caps or [None] * len(plans), run)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestLanewiseParity:
    def test_every_lane_bit_equals_scalar(self, param, prefetch):
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch)
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert assert_batch_equal(batch, plans, run) == (len(plans), 0)

    def test_batch_of_one_bit_equals_scalar(self, param, prefetch):
        scheme, kw = param
        run = RunConfig(prefetch=prefetch)
        for plan in lanes_for(lowered(scheme, kw, prefetch=prefetch)):
            assert assert_alone_equal(plan, run) == (1, 0)


class TestCapacityParity:
    """Mixed OOM/surviving lanes under capacity enforcement."""

    def _annotated(self, scheme="dapple", kw={}):
        stages = build_schedule(make_config(scheme, P, B, **kw)).num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        return lowered(scheme, kw, resources=res)

    def _mixed(self, plans):
        """Capacities that OOM some lanes and clear others."""
        run = RunConfig()
        peaks = [max(execute_plan(p, run).mem_peak.values())
                 for p in plans]
        caps = []
        for k, peak in enumerate(peaks):
            caps.append(int(peak) - 1 if k % 2 else int(peak) + 1)
        return caps

    def test_oom_lanes_match_scalar_error(self):
        plans = lanes_for(self._annotated())
        caps = self._mixed(plans)
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans, caps), run)
        ok, oom = assert_batch_equal(batch, plans, run, caps)
        assert ok and oom  # the fixture really mixed verdicts

    def test_uncapped_lanes_ride_along(self):
        """``None`` capacity disarms enforcement for that lane only."""
        plans = lanes_for(self._annotated())
        caps = [None, 1, None, 1]  # lanes 1 and 3 cannot fit 1 byte
        batch = execute_batch(PlanBatch.from_plans(plans, caps))
        assert [e is not None for e in batch.errors] == \
               [False, True, False, True]
        assert assert_batch_equal(batch, plans, RunConfig(), caps) == (2, 2)

    @pytest.mark.parametrize("scheme,kw", [("dapple", {}),
                                           ("hanayo", {"num_waves": 2})],
                             ids=["dapple", "hanayo-w2"])
    def test_batch_of_one_under_capacity(self, scheme, kw):
        """Static rejection, mid-run abort and a fit, one lane each."""
        plans = lanes_for(self._annotated(scheme, kw))
        run = RunConfig()
        for plan in plans:
            peak = int(max(execute_plan(plan, run).mem_peak.values()))
            got = [assert_alone_equal(plan, run, cap)
                   for cap in (1, peak - 1, peak + 1, None)]
            assert got == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_batch_of_one_keeps_lazy_cost_contract(self):
        """A mid-run-aborting batch of one resolves exactly the lazy
        compute costs the scalar core does — none after the aborting
        compute; a statically-rejected one resolves none."""
        base = self._annotated()
        peak = max(execute_plan(lanes_for(base, n=1)[0],
                                RunConfig()).mem_peak.values())
        cap = int(peak) - 1
        alone, scalar, static = (lanes_for(base, n=1)[0] for _ in range(3))
        # two calls: together the lanes would stack into a batch of two
        execute_many([(alone, cap)])
        execute_many([(static, 1)])
        with pytest.raises(OutOfMemoryError):
            execute_plan(scalar, RunConfig(), capacity_bytes=cap)
        resolved = [c is not None for c in alone.comp_cost]
        assert resolved == [c is not None for c in scalar.comp_cost]
        assert 0 < sum(resolved) < len(resolved)
        assert not any(c is not None for c in static.comp_cost)


class TestCollectiveParity:
    """Gradient-sync rings compiled in (concrete clusters, d=2)."""

    def _plans(self, factory):
        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, data_parallel=2)
        sched = build_schedule(cfg)
        plans = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            plans.append(ExecutablePlan.lower(program).retime(
                ClusterCosts(costs, cluster)))
        return plans

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_dp_collectives_bit_equal(self, factory):
        plans = self._plans(factory)
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for k, plan in enumerate(plans):
            want = execute_plan(plan, run)
            assert want.collectives  # the rings really are in the plan
            assert fold_events(want).sync_s[0] > 0
            assert_lane_equal(batch, k, want)

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_dp_collectives_batch_of_one(self, factory):
        for plan in self._plans(factory):
            assert assert_alone_equal(plan, RunConfig()) == (1, 0)


class TestRaggedBatches:
    @pytest.mark.parametrize("n", [1, 5], ids=["N1", "N5"])
    def test_ragged_width_parity(self, n):
        plans = lanes_for(lowered("interleaved", {"num_waves": 2}), n=n)
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert len(batch) == n
        assert assert_batch_equal(batch, plans, run) == (n, 0)


class TestColumnarResult:
    """Lean is simply not asking for the view: no ``detail`` flag, no
    event objects until ``lane(k)``."""

    def test_no_detail_parameter_on_batched_entry_points(self):
        import inspect

        for fn in (execute_batch, execute_many, batched._execute_lockstep,
                   batched._execute_contended):
            assert "detail" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("contention", [False, True],
                             ids=["free", "contention"])
    def test_views_are_built_on_demand(self, monkeypatch, contention):
        """A contention lane's view re-runs the scalar core, so both
        materializers are patched."""
        from repro.runtime import events

        def forbidden(*_args, **_kwargs):
            raise AssertionError("event objects built without lane()")

        plans = lanes_for(lowered("hanayo", {"num_waves": 2}))
        run = RunConfig(contention=contention)
        want = [reference_fold(execute_plan(p, run)) for p in plans]
        with monkeypatch.context() as patched:
            patched.setattr(batched, "_materialize", forbidden)
            patched.setattr(events, "_materialize", forbidden)
            batch = execute_batch(PlanBatch.from_plans(plans), run)
            assert [batch.fold.row(k) for k in range(len(plans))] == want
            with pytest.raises(AssertionError, match="without lane"):
                batch.lane(0)
        assert_result_equal(batch.lane(0), execute_plan(plans[0], run))


class TestExecuteMany:
    def test_groups_by_structure_and_preserves_item_order(self):
        a = lanes_for(lowered("gpipe", {}), n=2)
        b = lanes_for(lowered("dapple", {}), n=2)
        solo = lanes_for(lowered("gems", {}), n=1)
        items = [(a[0], None), (b[0], None), (a[1], None),
                 (solo[0], None), (b[1], None)]
        run = RunConfig()
        out = execute_many(items, run)
        assert len(out) == len(items)
        # the lone (gems) lane is a batch of one: same fold, same view
        plans = [plan for plan, _ in items]
        assert assert_batch_equal(out, plans, run) == (len(items), 0)

    def test_contention_lanes_never_fall_back_scalar(self):
        """Wire-divergent contention lanes stay in-batch through the
        contention driver; no lane may take a ``contention`` fallback."""
        from repro import profiling

        stats = profiling.batching_stats()
        before_scalar = stats.scalar_cells
        before_rec = stats.recovered_lanes
        plans = lanes_for(lowered("hanayo", {"num_waves": 2}),
                          n=batched.MIN_CONTENTION_LANES)
        run = RunConfig(contention=True)
        out = execute_many([(p, None) for p in plans], run)
        assert "contention" not in stats.fallback_reasons
        assert stats.scalar_cells == before_scalar
        assert stats.recovered_lanes == before_rec + len(plans)
        assert assert_batch_equal(out, plans, run) == (8, 0)

    def test_narrow_contention_groups_run_scalar(self):
        """Below ``MIN_CONTENTION_LANES`` the wire-exact vector passes
        cost more than the scalar core, so ``execute_many`` runs such
        a group lane by lane (reason ``narrow``) — same folds, same
        views; contention off, two lanes are already a batch."""
        from repro import profiling

        stats = profiling.batching_stats()
        narrow = stats.fallback_reasons.get("narrow", 0)
        batches, recovered = stats.batches, stats.recovered_lanes
        plans = lanes_for(lowered("hanayo", {"num_waves": 2}),
                          n=batched.MIN_CONTENTION_LANES - 1)
        run = RunConfig(contention=True)
        out = execute_many([(p, None) for p in plans], run)
        assert stats.fallback_reasons.get("narrow", 0) == \
            narrow + len(plans)
        assert (stats.batches, stats.recovered_lanes) == \
            (batches, recovered)
        assert assert_batch_equal(out, plans, run) == (len(plans), 0)
        execute_many([(p, None) for p in plans[:2]], RunConfig())
        assert stats.batches == batches + 1
        assert stats.fallback_reasons.get("narrow", 0) == \
            narrow + len(plans)

    def test_congruent_programs_share_one_batch(self):
        """Two separately-compiled copies of one structure (distinct
        program objects, equal congruence keys) stack into one batch."""
        from repro import profiling

        stats = profiling.batching_stats()
        a, b = lowered("gpipe", {}), lowered("gpipe", {})
        assert a.program is not b.program
        assert a.congruence_key == b.congruence_key
        stages = a.program.num_stages
        lanes = [a.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 b.retime(AbstractCosts(LANE_COSTS[1], P, stages))]
        run = RunConfig()
        batches, scalars = stats.batches, stats.scalar_cells
        out = execute_many([(p, None) for p in lanes], run)
        assert stats.batches == batches + 1      # one lockstep batch,
        assert stats.scalar_cells == scalars     # no scalar lane
        assert assert_batch_equal(out, lanes, run) == (2, 0)


class TestContentionParity:
    """``contention=True`` lanes stay in the batch, through the
    contention driver, and remain bit-identical to the scalar
    time-ordered driver."""

    @pytest.mark.parametrize("prefetch", [True, False],
                             ids=["pf", "nopf"])
    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_lean_contention_bit_equals_scalar(self, param, prefetch):
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch, contention=True)
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert assert_batch_equal(batch, plans, run) == (len(plans), 0)

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_contention_collectives_bit_equal_both_cores(self, factory):
        """Arbitrated DP rings: lean lanes must match the scalar core
        and (through it) the reference interpreter."""

        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, data_parallel=2)
        sched = build_schedule(cfg)
        cells = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            oracle = ClusterCosts(costs, cluster)
            cells.append((program, oracle,
                          ExecutablePlan.lower(program).retime(oracle)))
        run = RunConfig(contention=True)
        plans = [plan for _, _, plan in cells]
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for k, (program, oracle, plan) in enumerate(cells):
            want = execute_plan(plan, run)
            assert want.collectives  # the rings really are in the plan
            assert_lane_equal(batch, k, want)
            got = batch.lane(k)
            ref = execute_program_reference(program, oracle, run)
            assert got.timeline.spans == ref.timeline.spans
            assert got.recv_wait == ref.recv_wait
            assert got.collectives == ref.collectives
            assert got.device_end == ref.device_end

    def test_contention_lanes_actually_batch(self):
        """The fig11/contention grids must not silently de-batch."""
        from repro import profiling

        stats = profiling.batching_stats()
        plans = lanes_for(lowered("dapple", {}))
        run = RunConfig(contention=True)
        batches = stats.batches
        out = execute_batch(PlanBatch.from_plans(plans), run)
        assert stats.batches == batches + 1
        assert all(err is None for err in out.errors)


class TestContentionDriver:
    """The contention driver: lanes whose wire grants leave structural
    order, or disagree with each other, batch bit-identically to the
    scalar time-ordered driver."""

    @pytest.mark.parametrize("prefetch", [True, False],
                             ids=["pf", "nopf"])
    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_full_detail_contention_bit_equals_scalar(self, param,
                                                      prefetch):
        """Every lane straight through the driver: fold rows, and lane
        views (the scalar core re-run) on all fields."""
        scheme, kw = param
        plans = lanes_for(lowered(scheme, kw, prefetch=prefetch))
        run = RunConfig(prefetch=prefetch, contention=True)
        batch = contended(plans, run)
        assert assert_batch_equal(batch, plans, run) == (len(plans), 0)

    @pytest.mark.parametrize("factory", [make_fc, make_tacc, make_pc],
                             ids=["FC", "TACC", "PC"])
    def test_divergent_waves_recovered_both_cores(self, factory):
        """hanayo-w2 on shared-link concrete clusters — the
        known-divergent wave interleaving whose wire grants reorder
        against structural order — stays in-batch (zero scalar
        fallbacks) and matches both event cores."""
        from repro import profiling

        stats = profiling.batching_stats()
        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, num_waves=2,
                             data_parallel=2)
        sched = build_schedule(cfg)
        cells = []
        for size in (8, 16):
            cluster = factory(size)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            oracle = ClusterCosts(costs, cluster)
            cells.append((program, oracle,
                          ExecutablePlan.lower(program).retime(oracle)))
        run = RunConfig(contention=True)
        plans = [plan for _, _, plan in cells]
        scalar_before = stats.scalar_cells
        recovered_before = stats.recovered_lanes
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for k, (program, oracle, plan) in enumerate(cells):
            assert_lane_equal(batch, k, execute_plan(plan, run))
            got = batch.lane(k)
            ref = execute_program_reference(program, oracle, run)
            assert got.timeline.spans == ref.timeline.spans
            assert got.recv_wait == ref.recv_wait
            assert got.collectives == ref.collectives
            assert got.device_end == ref.device_end
        assert stats.scalar_cells == scalar_before  # no lane left
        assert stats.recovered_lanes > recovered_before

    def test_mixed_recovered_and_fallback_lanes(self):
        """One execute_many with a recovered contention group and a
        lone contention lane (a ``narrow`` group of width 1): outcomes
        stay item-ordered and each path's accounting is attributed
        correctly."""
        from repro import profiling

        stats = profiling.batching_stats()
        group = lanes_for(lowered("hanayo", {"num_waves": 2}), n=8)
        solo = lanes_for(lowered("gems", {}), n=1)
        items = [(group[0], None), (solo[0], None)] + \
            [(plan, None) for plan in group[1:]]
        run = RunConfig(contention=True)
        narrow_before = stats.fallback_reasons.get("narrow", 0)
        recovered_before = stats.recovered_lanes
        out = execute_many(items, run)
        assert stats.fallback_reasons.get("narrow", 0) == narrow_before + 1
        assert stats.recovered_lanes == recovered_before + len(group)
        plans = [plan for plan, _ in items]
        assert assert_batch_equal(out, plans, run) == (len(items), 0)

    @pytest.mark.parametrize("path", ["batch", "direct"])
    def test_mid_run_oom_under_contention(self, path):
        """A lane that aborts mid-run under contention stays in the
        driver, and its abort device/peak is the scalar pop order's —
        whether it comes through ``execute_batch`` or directly."""
        from repro import profiling

        stats = profiling.batching_stats()
        before = stats.scalar_cells
        scheme, kw = "hanayo", {"num_waves": 2}
        stages = build_schedule(make_config(scheme, P, B, **kw)) \
            .num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        plans = lanes_for(lowered(scheme, kw, resources=res))
        run = RunConfig(contention=True)
        peaks = [max(execute_plan(p, RunConfig()).mem_peak.values())
                 for p in plans]
        # lane 0: statically rejected; lane 1: aborts mid-run; the
        # rest clear (one uncapped, one just-fitting)
        caps = [1, int(peaks[1]) - 1, None, int(peaks[3]) + 1]
        if path == "batch":
            batch = execute_batch(PlanBatch.from_plans(plans, caps), run)
        else:
            batch = contended(plans, run, caps)
        assert assert_batch_equal(batch, plans, run, caps) == (2, 2)
        assert stats.scalar_cells == before

    def test_aborted_lane_keeps_lazy_cost_contract(self):
        """A mid-run-aborting contention lane resolves lazy compute
        costs only up to (and including) its aborting compute; a
        statically-rejected lane resolves none."""
        scheme, kw = "dapple", {}
        stages = build_schedule(make_config(scheme, P, B, **kw)) \
            .num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        base = lowered(scheme, kw, resources=res)
        probe = lanes_for(base)
        peak = max(execute_plan(probe[1], RunConfig()).mem_peak.values())
        caps = [1, int(peak) - 1, None, None]
        plans = lanes_for(base)  # fresh lanes: no probe-resolved costs
        execute_batch(PlanBatch.from_plans(plans, caps),
                      RunConfig(contention=True))
        assert all(c is None for c in plans[0].comp_cost)
        resolved = sum(c is not None for c in plans[1].comp_cost)
        assert 0 < resolved < len(plans[1].comp_cost)
        assert all(c is not None for c in plans[2].comp_cost)


class TestContentionDriverEdges:
    """Inputs chosen to hit the driver's tie and fallback rules."""

    @pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_seeded_costs_with_ties_bit_equal_scalar(self, param, prefetch):
        """Eight lanes of seeded costs, every other one on round
        numbers so grants tie across devices: each fold row equals the
        scalar time-ordered driver's."""
        import random

        scheme, kw = param
        base = lowered(scheme, kw, prefetch=prefetch)
        stages = base.program.num_stages
        rng = random.Random(sum(map(ord, scheme)) * 2 + int(prefetch))
        plans = []
        for k in range(8):
            if k % 2:
                cfg = CostConfig(t_f=rng.uniform(0.5, 2.0),
                                 t_b=rng.uniform(1.0, 3.0),
                                 t_c=rng.uniform(0.05, 1.5))
            else:
                cfg = CostConfig(t_f=1.0, t_b=rng.choice([1.0, 2.0]),
                                 t_c=rng.choice([0.25, 0.5, 1.0]))
            plans.append(base.retime(AbstractCosts(cfg, P, stages)))
        run = RunConfig(prefetch=prefetch, contention=True)
        batch = contended(plans, run)
        for k, plan in enumerate(plans):
            assert batch.fold.row(k) == fold_events(
                execute_plan(plan, run, detail="lean")).row(0)

    def test_zero_time_transfers_run_scalar(self):
        """A lane whose transfers partly take zero time while others
        contend for wires leaves the driver (reason ``zero-time``); the
        other lanes stay batched, and every outcome is the scalar one."""
        from repro import profiling

        class HalfFree(AbstractCosts):
            def transfer_time(self, src, dst, stage):
                if stage % 2:
                    return 0.0
                return super().transfer_time(src, dst, stage)

        base = lowered("hanayo", {"num_waves": 2})
        stages = base.program.num_stages
        plans = lanes_for(base)
        plans[1] = base.retime(HalfFree(LANE_COSTS[1], P, stages))
        stats = profiling.batching_stats()
        before = stats.fallback_reasons.get("zero-time", 0)
        run = RunConfig(contention=True)
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert stats.fallback_reasons.get("zero-time", 0) == before + 1
        assert assert_batch_equal(batch, plans, run) == (len(plans), 0)


class TestCongruentGroups:
    """Lanes of *different programs* with equal congruence keys batch
    as one group with per-lane structural state (recompute on/off)."""

    def _recompute_pair(self):
        cfg = make_config("dapple", P, B)
        stages = build_schedule(cfg).num_stages
        res = StageResources(weight_bytes=(100.0,) * stages,
                             activation_bytes=(10.0,) * stages)
        plain = lowered("dapple", {}, resources=res)
        rec_prog = plain.program.with_resources(
            plain.program.resources.with_recompute_from(0))
        return plain, ExecutablePlan.lower(rec_prog)

    def test_recompute_toggle_lanes_batch_and_match(self):
        plain, rec = self._recompute_pair()
        assert plain.congruence_key == rec.congruence_key
        stages = plain.program.num_stages
        plans = [plain.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[1], P, stages)),
                 plain.retime(AbstractCosts(LANE_COSTS[2], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[3], P, stages))]
        run = RunConfig()
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        assert assert_batch_equal(batch, plans, run) == (len(plans), 0)

    def test_congruent_mem_verdicts_are_per_lane(self):
        """Capacity verdicts must come from each lane's *own* memory
        trace — the recompute lane's watermarks differ from the head's."""
        plain, rec = self._recompute_pair()
        stages = plain.program.num_stages
        plans = [plain.retime(AbstractCosts(LANE_COSTS[0], P, stages)),
                 rec.retime(AbstractCosts(LANE_COSTS[1], P, stages))]
        run = RunConfig()
        peaks = [max(execute_plan(p, run).mem_peak.values())
                 for p in plans]
        caps = [int(peaks[0]) + 1, int(peaks[1]) - 1]
        batch = execute_batch(PlanBatch.from_plans(plans, caps), run)
        assert batch.errors[0] is None
        assert isinstance(batch.errors[1], OutOfMemoryError)
        with pytest.raises(OutOfMemoryError) as exc_info:
            execute_plan(plans[1], run, capacity_bytes=caps[1])
        assert str(batch.errors[1]) == str(exc_info.value)
        assert_lane_equal(batch, 0, execute_plan(plans[0], run,
                                                 capacity_bytes=caps[0]))


class TestHybridTPParity:
    """Hybrid TP∈{2,4} × DP∈{1,2} lanes through the batched stepper,
    pinned against both event cores."""

    @pytest.mark.parametrize("tp", [2, 4], ids=["tp2", "tp4"])
    @pytest.mark.parametrize("d", [1, 2], ids=["dp1", "dp2"])
    def test_hybrid_lanes_bit_equal_both_cores(self, tp, d):
        from repro.analysis import (
            HybridLayout,
            build_hybrid_simulation,
            plan_cache,
        )

        plan_cache().clear()
        layout = HybridLayout(tp=tp, p=2, d=d)
        run = RunConfig()
        cells = [
            build_hybrid_simulation("dapple", make_fc(size),
                                    tiny_model(num_layers=16), layout,
                                    B, run=run)
            for size in (layout.devices, 2 * layout.devices)
        ]
        plans = [cell.plan for cell in cells]
        # cost-only lanes share the compiled structure...
        assert plans[0].program is plans[1].program
        batch = execute_batch(PlanBatch.from_plans(plans), run)
        for k, cell in enumerate(cells):
            want = execute_plan(cell.plan, run)
            assert want.collectives  # TP boundary all-reduces compiled in
            assert_lane_equal(batch, k, want)
            got = batch.lane(k)
            ref = execute_program_reference(cell.program, cell.oracle,
                                            run)
            assert got.timeline.spans == ref.timeline.spans
            assert got.recv_wait == ref.recv_wait
            assert got.collectives == ref.collectives
            assert got.device_end == ref.device_end

    @pytest.mark.parametrize("d", [1, 2], ids=["dp1", "dp2"])
    def test_hybrid_batch_of_one(self, d):
        from repro.analysis import HybridLayout, build_hybrid_simulation

        layout = HybridLayout(tp=2, p=2, d=d)
        run = RunConfig()
        cell = build_hybrid_simulation("dapple", make_fc(layout.devices),
                                       tiny_model(num_layers=16), layout,
                                       B, run=run)
        assert assert_alone_equal(cell.plan, run) == (1, 0)


class TestFallbackReasons:
    """The --profile fallback histogram: every scalar cell is blamed,
    with wall time attributed per reason; recovered lanes counted."""

    def test_reasons_recorded_and_described(self):
        """A lone uncontended lane is a batch of one, not a fallback; a
        lone contention lane is a ``narrow`` one."""
        from repro import profiling

        stats = profiling.batching_stats()
        before = dict(stats.fallback_reasons)
        before_s = dict(stats.fallback_s)
        before_rec = stats.recovered_lanes
        solo = lanes_for(lowered("gems", {}), n=1)
        batches = stats.batches
        execute_many([(solo[0], None)], RunConfig())
        assert stats.batches == batches + 1
        assert stats.fallback_reasons == before
        execute_many([(solo[0], None)], RunConfig(contention=True))
        plans = lanes_for(lowered("hanayo", {"num_waves": 2}), n=8)
        execute_many([(p, None) for p in plans],
                     RunConfig(contention=True))  # wire-divergent lanes
        assert stats.fallback_reasons.get("narrow", 0) == \
            before.get("narrow", 0) + 1
        assert stats.fallback_s.get("narrow", 0.0) > \
            before_s.get("narrow", 0.0)
        assert "singleton" not in stats.fallback_reasons
        assert "contention" not in stats.fallback_reasons
        assert stats.recovered_lanes == before_rec + len(plans)
        text = stats.describe()
        assert "fallbacks [" in text
        assert "narrow=" in text
        assert "ms" in text.split("fallbacks [", 1)[1]  # wall time shown
        assert "contention driver" in text
        assert "grant splits" in text

    def test_concurrent_recording_loses_no_update(self):
        """The serving layer's dispatcher threads all record into one
        ``BatchingStats``: N threads x M records must produce exact
        totals and an occupancy histogram that sums to the batches."""
        import sys
        import threading

        from repro.profiling import BatchingStats

        stats = BatchingStats()
        threads_n, rounds = 8, 2000
        start = threading.Barrier(threads_n)

        def hammer(tid):
            start.wait(timeout=30)
            for i in range(rounds):
                stats.record_batch(1 + (tid + i) % 5, 0.001)
                stats.record_scalar(2, 0.001, "narrow")
                stats.record_recovered(3, 0.001)
                stats.record_dedup()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(tid,))
                       for tid in range(threads_n)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        calls = threads_n * rounds
        assert stats.batches == 2 * calls       # recovered ones included
        assert sum(stats.occupancy.values()) == stats.batches
        assert stats.lanes == sum(n * count for n, count
                                  in stats.occupancy.items())
        assert stats.scalar_cells == 2 * calls
        assert stats.fallback_reasons == {"narrow": 2 * calls}
        assert (stats.recovered_batches, stats.recovered_lanes) == \
               (calls, 3 * calls)
        assert stats.dedup_hits == calls

    def test_contention_counts_inside_batched_totals(self):
        """A contention batch is a batch: occupancy and lane totals keep
        covering every batched lane."""
        from repro import profiling

        stats = profiling.batching_stats()
        lanes0, batches0 = stats.lanes, stats.batches
        recovered0 = stats.recovered_lanes
        plans = lanes_for(lowered("hanayo", {"num_waves": 2}))
        execute_batch(PlanBatch.from_plans(plans),
                      RunConfig(contention=True))
        assert stats.recovered_lanes == recovered0 + len(plans)
        assert stats.lanes == lanes0 + len(plans)
        assert stats.batches == batches0 + 1
        assert sum(n * c for n, c in stats.occupancy.items()) \
            == stats.lanes


def _bert_costs(sched, cluster, mb):
    from repro.models import bert_64

    return stage_costs(bert_64(), sched.num_stages, cluster.device, mb)


def _span_order(result) -> tuple:
    """The lane's global compute order: span ids merged by start time."""
    events = sorted((top.start, str(dev), j)
                    for dev, row in result.timeline.spans.items()
                    for j, top in enumerate(row))
    return tuple((dev, j) for _at, dev, j in events)


class TestContentionGrids:
    """Whole contention grids keep to the path they are meant for —
    counted on :class:`~repro.profiling.BatchingStats`, so a change that
    quietly de-batches a grid fails here, not only in wall time — and
    every lane's fold row equals the scalar core's."""

    def _run(self, plans):
        from repro import profiling

        stats = profiling.batching_stats()
        before = (stats.batches, stats.scalar_cells, stats.splits,
                  dict(stats.fallback_reasons))
        run = RunConfig(contention=True)
        out = execute_many([(plan, None) for plan in plans], run)
        delta = (stats.batches - before[0], stats.scalar_cells - before[1],
                 stats.splits - before[2])
        assert stats.fallback_reasons == before[3]
        wants = [execute_plan(plan, run, detail="lean") for plan in plans]
        for k, want in enumerate(wants):
            assert out.errors[k] is None
            assert out.fold.row(k) == fold_events(want).row(0)
        return delta, wants

    def test_grant_stable_grid_stays_one_batch(self):
        """gpipe and dapple at P = 8 (dapple also at P = 4, D = 2) on
        concrete clusters: one batch per structure and no lane scalar.
        The lanes grant their wires alike; the few splits come from the
        driver's conservative bound on flag-blocked rivals and re-merge
        (the count is deterministic, so a change in it is visible)."""
        from repro.cluster import make_tc

        grid = [
            ("gpipe", 8, 1, [make_fc(8), make_pc(8), make_tacc(8),
                             make_tc(8)]),
            ("dapple", 8, 1, [make_fc(8), make_tc(16)]),
            ("dapple", 4, 2, [make_fc(8)]),
        ]
        plans = []
        for scheme, p, d, clusters in grid:
            sched = build_schedule(PipelineConfig(
                scheme=scheme, num_devices=p, num_microbatches=16,
                data_parallel=d))
            for cluster, mb in itertools.product(clusters, range(1, 9)):
                costs = _bert_costs(sched, cluster, mb)
                program = compile_cluster_program(sched, cluster, costs, d=d)
                plans.append(ExecutablePlan.lower(program).retime(
                    ClusterCosts(costs, cluster)))
        assert len(plans) == 56
        (batches, scalar, splits), _ = self._run(plans)
        assert (batches, scalar, splits) == (3, 0, 11)

    def test_divergent_grid_splits_but_stays_batched(self):
        """hanayo-w2 at P = 4, D = 2 retimed across microbatch sizes:
        compute scales with the size, wire latency does not, so grant
        orders genuinely differ between lanes: the cohort splits on
        those grants, and still no lane runs scalar."""
        sched = build_schedule(PipelineConfig(
            scheme="hanayo", num_devices=4, num_microbatches=16,
            num_waves=2, data_parallel=2))
        cluster = make_fc(16)
        base = ExecutablePlan.lower(compile_cluster_program(
            sched, cluster, _bert_costs(sched, cluster, 1), d=2))
        plans = [base.retime(ClusterCosts(_bert_costs(sched, cluster, mb),
                                          cluster))
                 for mb in range(1, 17)]
        (batches, scalar, splits), wants = self._run(plans)
        assert (batches, scalar) == (1, 0)
        assert splits > 0
        # identical grant orders would make this a lockstep grid
        assert len({_span_order(want) for want in wants}) >= 2


class TestFromPlansValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulingError, match="empty batch"):
            PlanBatch.from_plans([])

    def test_unbound_plan_rejected(self):
        with pytest.raises(SchedulingError, match="not cost-bound"):
            PlanBatch.from_plans([lowered("gpipe", {})])

    def test_structure_mismatch_rejected(self):
        a = lanes_for(lowered("gpipe", {}), n=1)[0]
        b = lanes_for(lowered("dapple", {}), n=1)[0]
        with pytest.raises(SchedulingError,
                           match="congruence_key mismatch"):
            PlanBatch.from_plans([a, b])

    def test_capacity_arity_rejected(self):
        """Structured ConfigError naming the offending lane indices."""
        plans = lanes_for(lowered("gpipe", {}), n=3)
        with pytest.raises(
                ConfigError,
                match=r"one capacity per lane required.*"
                      r"lanes \[1, 2\] have no capacity"):
            PlanBatch.from_plans(plans, [None])
        with pytest.raises(
                ConfigError,
                match=r"capacities \[3\] name no lane"):
            PlanBatch.from_plans(plans, [None, 1, 2, 3])

    def test_capacity_needs_resources(self):
        plans = lanes_for(lowered("gpipe", {}), n=2)
        with pytest.raises(SchedulingError, match="capacity enforcement"):
            execute_batch(PlanBatch.from_plans(plans, [100, None]))


class TestDeadlockOutranksCapacity:
    """The one known batch-vs-scalar divergence (``runtime/batched.py``
    module doc), pinned: deadlock is a property of the structure, so a
    deadlocking batch raises ``SchedulingError`` as a whole — even for
    a lane whose capacity the scalar core would have hit first.  A
    batch of one is exempt: it keeps the scalar outcome."""

    def deadlocking_lanes(self):
        from repro.actions.reorder import ordering_entries, reorder_program

        stages = build_schedule(make_config("gpipe", P, B)).num_stages
        base = lowered("gpipe", {}, resources=StageResources(
            weight_bytes=(100.0,) * stages,
            activation_bytes=(10.0,) * stages)).program
        orders = ordering_entries(base)
        last = max(orders)
        # every backward before its own forward: a dependency inversion
        orders[last] = orders[last][::-1]
        plan = ExecutablePlan.lower(reorder_program(base, orders))
        return lanes_for(plan, n=2)

    def test_scalar_lane_ooms_first_batch_reports_the_deadlock(self):
        plans = self.deadlocking_lanes()
        run = RunConfig()
        # scalar: device 0's first forward allocation (100 static + 10)
        # aborts the lane before the event loop can get stuck ...
        with pytest.raises(OutOfMemoryError):
            execute_plan(plans[0], run, capacity_bytes=105)
        # ... and without a capacity the same structure deadlocks
        with pytest.raises(SchedulingError, match="deadlock") as scalar:
            execute_plan(plans[1], run)
        # batch: the structural verdict wins for every lane, with the
        # scalar core's message
        with pytest.raises(SchedulingError, match="deadlock") as batch:
            execute_batch(PlanBatch.from_plans(plans, [105, None]), run)
        assert str(batch.value) == str(scalar.value)

    def test_batch_of_one_keeps_the_scalar_outcome(self):
        """A lone lane has no batch verdict to share: it keeps the
        scalar core's outcome — the OOM under capacity 105, the same
        deadlock message without a capacity."""
        plans = self.deadlocking_lanes()
        run = RunConfig()
        out = execute_many([(plans[0], 105)], run)
        assert isinstance(out.errors[0], OutOfMemoryError)
        with pytest.raises(OutOfMemoryError) as scalar_oom:
            execute_plan(plans[0], run, capacity_bytes=105)
        assert str(out.errors[0]) == str(scalar_oom.value)
        with pytest.raises(SchedulingError, match="deadlock") as scalar:
            execute_plan(plans[1], run)
        with pytest.raises(SchedulingError, match="deadlock") as alone:
            execute_many([(plans[1], None)], run)
        assert str(alone.value) == str(scalar.value)


class TestBoundPlanCache:
    """PlanEntry.bindings: one re-time per (cluster, costs, P) key."""

    def test_binding_reused_per_key(self):
        from repro.analysis.plans import PlanEntry

        base = lowered("dapple", {})
        sched = build_schedule(make_config("dapple", P, B))
        entry = PlanEntry(schedule=sched, program=base.program,
                          plan=base)
        calls = []

        def factory(i):
            def make():
                calls.append(i)
                return self_oracle(i)
            return make

        def self_oracle(i):
            return AbstractCosts(LANE_COSTS[i], P,
                                 base.program.num_stages)

        a1 = entry.bound_plan(("k1",), factory(0))
        a2 = entry.bound_plan(("k1",), factory(0))
        b = entry.bound_plan(("k2",), factory(1))
        assert a1 is a2            # second lookup never re-times
        assert b is not a1
        assert calls == [0, 1]     # one oracle build per distinct key
        assert_result_equal(
            execute_plan(a1, RunConfig()),
            execute_plan(base.retime(self_oracle(0)), RunConfig()))

    def test_bindings_are_lru_bounded(self, monkeypatch):
        """A long-lived entry keeps its most recently used bindings."""
        import repro.analysis.plans as plans_mod

        monkeypatch.setattr(plans_mod, "MAX_BINDINGS", 3)
        base = lowered("dapple", {})
        entry = plans_mod.PlanEntry(
            schedule=build_schedule(make_config("dapple", P, B)),
            program=base.program, plan=base)

        def oracle():
            return AbstractCosts(LANE_COSTS[0], P, base.program.num_stages)

        first = entry.bound_plan(("k", 0), oracle)
        for i in (1, 2):
            entry.bound_plan(("k", i), oracle)
        assert entry.bound_plan(("k", 0), oracle) is first  # hit: bumped
        entry.bound_plan(("k", 3), oracle)                   # evicts k1
        assert list(entry.bindings) == [("k", 2), ("k", 0), ("k", 3)]
