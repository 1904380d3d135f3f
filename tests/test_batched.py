"""The batched layer's own contracts (runtime/batched.py).

Bit-identity of every lane through every executor is the generated
corpus of ``tests/test_executor_oracle.py``.  Kept here is what one
draw cannot state: on-demand views, several structures in one call,
profile counters, whole grids' batch and split counts, ``PlanBatch``
validation, the known divergence (deadlock outranks capacity),
structural verdicts, the structure registry and the bound-plan cache.
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
from repro.analysis import compile_cluster_program
from repro.cluster import make_fc, make_pc, make_tacc
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import ConfigError, OutOfMemoryError, SchedulingError
from repro.models import tiny_model
from repro.models.costs import stage_costs
from repro.runtime import (
    AbstractCosts,
    ClusterCosts,
    PlanBatch,
    execute_batch,
    execute_many,
    execute_plan,
)
from repro.runtime import batched
from repro.schedules import build_schedule

from conftest import make_config
from support.events_ref import execute_program_reference
from support.invariants import fold_of
from support.oracle import assert_lanes_agree, assert_result_equal

P = B = 4

#: four lanes with genuinely different arithmetic
LANE_COSTS = (
    CostConfig(t_f=1.0, t_b=2.0, t_c=0.25),
    CostConfig(t_f=1.3, t_b=2.1, t_c=0.1),
    CostConfig(t_f=0.7, t_b=1.9, t_c=0.5),
    CostConfig(t_f=1.0, t_b=1.0, t_c=0.0),
)


def lowered(scheme, kw, resources=None):
    cfg = make_config(scheme, P, B, **kw)
    program = compile_program(build_schedule(cfg), resources=resources)
    return ExecutablePlan.lower(program)


def lanes_for(plan, n=len(LANE_COSTS)):
    """``n`` retimes of one structure, cycling the varied cost table."""
    stages = plan.program.num_stages
    return [plan.retime(AbstractCosts(LANE_COSTS[i % len(LANE_COSTS)],
                                      P, stages))
            for i in range(n)]


class TestColumnarResult:
    """Lean is simply not asking for the view: no ``detail`` flag, no
    event objects until ``lane(k)``."""

    def test_no_detail_parameter_on_batched_entry_points(self):
        import inspect

        from repro.runtime import events

        for fn in (execute_batch, execute_many, batched._execute_lockstep,
                   batched._execute_contended, execute_plan,
                   events._materialize):
            assert "detail" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("contention", [False, True],
                             ids=["free", "contention"])
    def test_views_are_built_on_demand(self, monkeypatch, contention):
        """Every lane view, a contention lane's scalar re-run included,
        goes through the one materializer."""
        from repro.runtime import events

        def forbidden(*_args, **_kwargs):
            raise AssertionError("event objects built without lane()")

        plans = lanes_for(lowered("hanayo", {"num_waves": 2}))
        run = RunConfig(contention=contention)
        want = [fold_of(execute_plan(p, run)) for p in plans]
        with monkeypatch.context() as patched:
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
        # the lone (gems) lane is a batch of one: same fold, same view
        assert_lanes_agree(out, [execute_plan(plan, run)
                                 for plan, _ in items])

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
        assert_lanes_agree(out, [execute_plan(p, run) for p in plans])

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
        assert_lanes_agree(out, [execute_plan(p, run) for p in plans])
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
        assert_lanes_agree(out, [execute_plan(p, run) for p in lanes])


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
        wants = [execute_plan(plan, run) for plan in plans]
        for k, want in enumerate(wants):
            assert out.errors[k] is None
            assert out.fold.row(k) == fold_of(want)
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
        with pytest.raises(SchedulingError, match=f"{b.name} does not share "
                           f"{a.name}'s .*congruence_key mismatch"):
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


class TestStructuralVerdicts:
    """What the structural pass refuses or reports is an error of every
    driver, worded as the scalar core and the reference word it."""

    def test_deadlock_text_matches_every_driver(self):
        """A deadlocking 8-lane contention group raises the scalar
        contention core's exact text, which is also the uncontended
        one's; both extend the reference interpreter's message."""
        plan = TestDeadlockOutranksCapacity().deadlocking_lanes()[0]
        plans = lanes_for(plan, n=batched.MIN_CONTENTION_LANES)
        texts = []
        for contention in (False, True):
            run = RunConfig(contention=contention)
            with pytest.raises(SchedulingError, match="deadlock") as scalar:
                execute_plan(plans[0], run)
            with pytest.raises(SchedulingError, match="deadlock") as many:
                execute_many([(p, None) for p in plans], run)
            assert str(many.value) == str(scalar.value)
            with pytest.raises(SchedulingError, match="deadlock") as ref:
                execute_program_reference(plan.program, plans[0].costs, run)
            assert str(scalar.value).startswith(f"{ref.value}; wait cycle: ")
            texts.append(str(scalar.value))
        assert texts[0] == texts[1]
        assert "wait cycle" in texts[0]

    def test_cross_device_local_dependency_is_refused(self):
        """A local (transfer-less) hand-off between two devices would
        time a compute from another device's clock; the structural pass
        names it instead of running it.  The time-ordered driver refuses
        it too: it wakes a blocked head only on a post to its device."""
        import dataclasses

        from repro.actions.program import Dependency

        program = lowered("gpipe", {}).program
        key, deps = next((key, deps) for key, deps in program.deps.items()
                         if any(dep.remote for dep in deps))
        forged = tuple(Dependency(dep.producer, dep.src) for dep in deps)
        bad = ExecutablePlan.lower(dataclasses.replace(
            program, deps={**program.deps, key: forged}))
        plans = lanes_for(bad, n=2)
        kind, mb, st = key
        on = rf"{kind.value}\(m{mb},s{st}\) on d{program.ops[key].device} "
        with pytest.raises(SchedulingError,
                           match=on + "has a local dependency on"):
            execute_plan(plans[0], RunConfig())
        with pytest.raises(SchedulingError, match=on + "has a local"):
            execute_batch(PlanBatch.from_plans(plans), RunConfig())
        with pytest.raises(SchedulingError,
                           match=on + "has a local dependency on"):
            execute_plan(plans[0], RunConfig(contention=True))


class TestOneStructurePerClass:
    """Congruent programs share one structural pass; only the memory
    trace is per program (per size binding)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """A fresh structure registry and the programs whose structural
        pass actually ran."""
        import weakref

        from repro.runtime import events

        monkeypatch.setattr(events, "_STRUCTURES",
                            weakref.WeakValueDictionary())
        seen = []
        real = events._build_lockstep

        def counting(plan, key):
            seen.append(plan.name)
            return real(plan, key)

        monkeypatch.setattr(events, "_build_lockstep", counting)
        return seen

    def test_models_and_microbatch_sizes_share_one_pass(self, builds):
        cfg = PipelineConfig(scheme="hanayo", num_devices=P,
                             num_microbatches=B, data_parallel=2)
        sched = build_schedule(cfg)
        cluster = make_tacc(8)
        plans = []
        for model in (tiny_model(num_layers=16), tiny_model(num_layers=8)):
            for size in (1, 2):
                costs = stage_costs(model, sched.num_stages, cluster.device,
                                    size)
                program = compile_cluster_program(sched, cluster, costs, d=2)
                plans.append(ExecutablePlan.lower(program).retime(
                    ClusterCosts(costs, cluster)))
        assert len({id(p.program) for p in plans}) == 4
        run = RunConfig()
        out = execute_many([(p, None) for p in plans], run)
        assert len(builds) == 1
        assert_lanes_agree(out, [execute_plan(p, run) for p in plans])
        assert len(builds) == 1
        # the traces are the programs' own: four distinct peaks
        assert len({tuple(batched.memory_trace(p).mem_peak)
                    for p in plans}) == 4

    def test_congruent_deadlocks_name_their_own_program(self, builds):
        import dataclasses

        program = TestDeadlockOutranksCapacity().deadlocking_lanes()[0] \
            .program
        twin = dataclasses.replace(program, name="twin-of-gpipe")
        plans = [lanes_for(ExecutablePlan.lower(p), n=1)[0]
                 for p in (program, twin)]
        assert plans[0].congruence_key == plans[1].congruence_key
        for run in (RunConfig(), RunConfig(contention=True)):
            for plan in plans:
                for execute in (lambda: execute_plan(plan, run),
                                lambda: execute_many([(plan, None)], run)):
                    with pytest.raises(SchedulingError) as err:
                        execute()
                    assert str(err.value).startswith(
                        f"{plan.program.name}: simulation deadlock")
        assert builds == [program.name]

    def test_collective_kind_enters_the_key(self):
        import dataclasses

        sched = build_schedule(PipelineConfig(
            scheme="hanayo", num_devices=P, num_microbatches=B,
            data_parallel=2))
        cluster = make_tacc(8)
        costs = stage_costs(tiny_model(num_layers=16), sched.num_stages,
                            cluster.device, 2)
        plan = ExecutablePlan.lower(compile_cluster_program(
            sched, cluster, costs, d=2)).retime(ClusterCosts(costs, cluster))
        flipped = dataclasses.replace(
            plan,
            coll_ops=type(plan.coll_ops)(
                dataclasses.replace(op, kind=CollectiveKind.TP_BOUNDARY)
                for op in plan.coll_ops),
            _congruence_key=None)
        assert any(op.kind is CollectiveKind.GRAD_SYNC
                   for op in plan.coll_ops)
        assert flipped.congruence_key != plan.congruence_key

    def test_structure_lives_as_long_as_its_programs(self, builds):
        import gc

        from repro.runtime import events

        plans = lanes_for(lowered("gpipe", {}), n=2)
        execute_batch(PlanBatch.from_plans(plans), RunConfig())
        assert len(events._STRUCTURES) == 1
        del plans
        gc.collect()
        assert len(events._STRUCTURES) == 0


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

        [a1] = entry.bound_plans([("k1",)], [factory(0)])
        [a2] = entry.bound_plans([("k1",)], [factory(0)])
        [b] = entry.bound_plans([("k2",)], [factory(1)])
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

        def bind(key):
            return entry.bound_plans([key], [oracle])[0]

        first = bind(("k", 0))
        for i in (1, 2):
            bind(("k", i))
        assert bind(("k", 0)) is first  # hit: bumped
        bind(("k", 3))                  # evicts k1
        assert list(entry.bindings) == [("k", 2), ("k", 0), ("k", 3)]
