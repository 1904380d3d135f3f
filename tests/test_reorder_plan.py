"""The differential pin of the lowered-space reorder.

:meth:`repro.actions.reorder.Reorderer.plan` re-emits the base plan in
a candidate's order without building the candidate ``Program``; the
object route — :meth:`Reorderer.reorder` then
:meth:`ExecutablePlan.lower` — is its oracle.  The two must agree on
every ``ExecutablePlan`` field for *any* permutation, legal or not
(illegal orderings compile too; they deadlock or OOM at execution).
"""

from __future__ import annotations

import gc
from collections import Counter
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.actions import compile_program, with_gradient_sync, with_tp_sync
from repro.actions.lowering import ExecutablePlan
from repro.actions.reorder import Reorderer, ordering_entries
from repro.actions.resources import StageResources
from repro.config import CostConfig
from repro.errors import SynthesisError, ValidationError
from repro.runtime import AbstractCosts
from repro.runtime.batched import PlanBatch, execute_batch
from repro.runtime.events import execute_plan
from repro.runtime.metrics import bubble_stats
from repro.schedules import build_schedule
from repro.synthesis import (
    ScheduleOrdering,
    SearchConfig,
    propose_mutation,
    synthesize,
)
from repro.synthesis.search import SynthesisContext

from conftest import ALL_SCHEMES, assert_plans_equal, make_config
from test_synthesis_fuzz import random_transposition

COMM = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)


@st.composite
def reorder_cases(draw):
    """(program, seed): family × P × B × waves × prefetch × batching ×
    gradient-sync collectives × step tail × resources/frontier."""
    scheme, kw = draw(st.sampled_from(ALL_SCHEMES))
    p = draw(st.sampled_from([2, 4]))
    b = draw(st.integers(1, 6))
    if scheme in ("chimera", "chimera-wave", "gems"):
        b += b % 2
    sched = build_schedule(make_config(scheme, p, b, **kw), COMM)
    stages = sched.num_stages
    resources = None
    if draw(st.booleans()):
        resources = StageResources(
            weight_bytes=tuple(10.0 * (s + 1) for s in range(stages)),
            activation_bytes=tuple(100.0 + s for s in range(stages)),
            boundary_bytes=7.0)
        frontier = draw(st.none() | st.integers(0, stages))
        if frontier is not None:
            resources = resources.with_recompute_from(frontier)
    program = compile_program(
        sched, prefetch=draw(st.booleans()),
        batch_cross_comm=draw(st.booleans()),
        add_step=draw(st.booleans()),
        boundary_bytes=lambda tag: 8.0 * (tag.stage + 1),
        resources=resources)
    if draw(st.booleans()):
        program = with_gradient_sync(
            program, {d: (d, d + p) for d in range(p)},
            {s: 64.0 * (s + 1) for s in range(stages)})
    return program, draw(st.integers(0, 2**16))


class TestLoweredRouteEqualsObjectRoute:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=reorder_cases())
    def test_every_field_over_a_seeded_walk(self, case):
        program, seed = case
        rng = Random(seed)
        reorderer = Reorderer(program, ExecutablePlan.lower(program))
        ordering = ScheduleOrdering.from_program(program)
        for step in range(12):
            if step % 2:
                ordering = random_transposition(rng, ordering)
            else:
                try:
                    _, ordering = propose_mutation(rng, program, ordering,
                                                   max_shift=4)
                except SynthesisError:
                    pass
            orders = ordering.to_orders()
            assert_plans_equal(
                reorderer.plan(orders),
                ExecutablePlan.lower(reorderer.reorder(orders)))

    def test_base_is_lowered_on_demand(self):
        program = compile_program(
            build_schedule(make_config("hanayo", 4, 4, num_waves=2), COMM))
        orders = ordering_entries(program)
        assert_plans_equal(Reorderer(program).plan(orders),
                           ExecutablePlan.lower(program))

    def test_rejects_non_permutations_and_blocking_collectives(self):
        program = compile_program(
            build_schedule(make_config("gpipe", 2, 2), COMM))
        reorderer = Reorderer(program)
        orders = ordering_entries(program)
        orders[0] = orders[0][:-1]
        with pytest.raises(ValidationError, match="not a permutation"):
            reorderer.plan(orders)
        glued = with_tp_sync(program, {d: (d, d + 2) for d in range(2)},
                             64.0, 2.0)
        with pytest.raises(ValidationError, match="not +reorderable"):
            Reorderer(glued, ExecutablePlan.lower(glued))

    def test_rejects_comm_no_dependency_edge_derives(self):
        """Tag/slot ids are order-independent only if every Send/Recv
        comes from a dependency edge (hazard 4)."""
        from repro.actions.ops import CommKind, Send, Tag

        program = compile_program(
            build_schedule(make_config("gpipe", 2, 2), COMM))
        program.actions[0].append(
            Send(peer=1, tag=Tag(CommKind.ACTIVATION, 99, 0)))
        with pytest.raises(ValidationError, match="dependency edges"):
            Reorderer(program, ExecutablePlan.lower(program))


def searched(scheme="hanayo", p=4, b=4, *, rounds=5, recompute=False,
             **kw):
    sched = build_schedule(make_config(scheme, p, b, **kw), COMM)
    oracle = AbstractCosts(COMM, p, sched.num_stages)
    resources = None
    if recompute:
        stages = sched.num_stages
        resources = StageResources(
            weight_bytes=(0.0,) * stages,
            activation_bytes=(100.0,) * stages, boundary_bytes=10.0)
    config = SearchConfig(seed=0, rounds=rounds, samples_per_round=16,
                          beam_width=4, patience=rounds,
                          recompute=recompute)
    return sched, oracle, resources, config


class TestScorerRidesTheLoweredRoute:
    def test_search_lowers_once_and_reorders_only_for_the_pin(
            self, monkeypatch):
        """Whatever the number of candidates and recompute frontiers,
        a search lowers its base once and the winner once (the replay
        pin, the only ``Program`` it reorders)."""
        calls = Counter()
        real_lower, real_reorder = ExecutablePlan.lower, Reorderer.reorder

        def lower(program, costs=None):
            calls["lower"] += 1
            return real_lower(program, costs)

        def reorder(self, *args, **kw):
            calls["reorder"] += 1
            return real_reorder(self, *args, **kw)

        monkeypatch.setattr(ExecutablePlan, "lower", staticmethod(lower))
        monkeypatch.setattr(Reorderer, "reorder", reorder)
        sched, oracle, resources, config = searched(
            num_waves=2, recompute=True)
        result = synthesize(sched, oracle, config, resources=resources,
                            start="gpipe")
        assert result.evaluated - result.illegal > 20
        assert calls == {"lower": 2, "reorder": 1}

    def test_frontier_entries_size_bind_the_one_lowering(self):
        sched, oracle, resources, _ = searched(num_waves=2,
                                               recompute=True)
        ctx = SynthesisContext(sched, oracle, resources=resources)
        base = ctx.entry_for(None).plan
        for frontier in range(ctx.base_program.num_stages + 1):
            entry = ctx.entry_for(frontier)
            assert entry.plan.codes is base.codes and entry.plan.bound
            independent = compile_program(
                sched,
                boundary_bytes=lambda tag: oracle.tensor_nbytes(tag.stage),
                resources=resources.with_recompute_from(frontier))
            assert (entry.plan.plan_key
                    == ExecutablePlan.lower(independent).plan_key)

    def test_candidates_never_share_a_program_object(self):
        """The runtime memoizes its structural pass *on the program*
        and batches treat one program object as one structure: a
        candidate carrying the base's object would score with another
        ordering's event schedule (hazard 2)."""
        sched, oracle, resources, _ = searched(num_waves=2)
        ctx = SynthesisContext(sched, oracle)
        start = ScheduleOrdering.from_program(ctx.base_program)
        _, other = propose_mutation(Random(3), ctx.base_program, start)
        a = ctx._candidate_plan(start, check=False)
        b = ctx._candidate_plan(other, check=False)
        c = ctx._candidate_plan(start, check=False)
        programs = {id(x.program) for x in (a, b, c)}
        assert len(programs) == 3
        assert id(ctx.base_program) not in programs

    def test_frontier_group_batch_equals_scalar_lanes(self):
        """A frontier group scored by ``execute_batch`` right after
        scalar candidates equals lane-by-lane scalar scoring."""
        sched, oracle, resources, _ = searched(num_waves=2,
                                               recompute=True)
        ctx = SynthesisContext(sched, oracle, resources=resources)
        stages = ctx.base_program.num_stages
        rng = Random(5)
        ordering = ScheduleOrdering.from_program(ctx.base_program,
                                                 stages)
        scalar_first = []
        for _ in range(6):
            try:
                _, cand = propose_mutation(rng, ctx.base_program,
                                           ordering, max_shift=3)
            except SynthesisError:
                continue
            scored = ctx.evaluate(cand, structural=False)
            scalar_first.append(scored)
            if scored is not None:
                ordering = cand
        group = [ordering.with_frontier(f) for f in range(stages + 1)]
        verdicts = ctx.evaluate_round(group)
        assert any(v is not None for v in verdicts)
        for cand, verdict in zip(group, verdicts):
            alone = SynthesisContext(
                sched, oracle, resources=resources).evaluate(cand)
            assert (verdict is None) == (alone is None)
            if verdict is not None:
                assert verdict.makespan == alone.makespan
                assert verdict.bubble_ratio == alone.bubble_ratio
        # and the stacked plans really went through the vector stepper
        plans = [ctx._candidate_plan(c, check=False) for c in group]
        batch = execute_batch(PlanBatch.from_plans(plans))
        for plan, makespan, bubble in zip(
                plans, batch.fold.makespan.tolist(),
                batch.fold.bubble_ratio.tolist()):
            timeline = execute_plan(plan, detail="lean").timeline
            assert makespan == timeline.makespan
            assert bubble == bubble_stats(timeline).bubble_ratio

    def test_scratch_plan_dies_by_refcount(self):
        """No plan <-> program cycle: the ``RetimeBuffers`` contract is
        score-then-drop, so a dropped scratch plan must be freed
        without a collection (hazard 3) — even after its lazy action
        lists were decoded."""
        import weakref

        sched, oracle, _, _ = searched(num_waves=2)
        ctx = SynthesisContext(sched, oracle)
        start = ScheduleOrdering.from_program(ctx.base_program)
        gc.collect()
        gc.disable()
        try:
            plan = ctx._candidate_plan(start, check=False, scratch=True)
            execute_plan(plan, ctx.run, detail="lean")
            assert plan.program.actions[0] \
                == ctx.base_program.actions[0]
            refs = [weakref.ref(plan), weakref.ref(plan.program)]
            del plan
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
