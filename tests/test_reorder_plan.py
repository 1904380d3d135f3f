"""The synthesis scorer rides the legality checker's order.

The searcher never rebuilds a candidate: it scores a legal ordering with
:class:`repro.synthesis.timing.TimedReplay`, one float pass over the
topological order :class:`~repro.synthesis.LegalityChecker` computed.
The oracle is the object route — :func:`reorder_program`, then
:meth:`ExecutablePlan.lower` and the uncontended event core — and the
two must agree ``==`` on ``(makespan, bubble_ratio)``.  Over generated
walks (every family, comm passes, step tail, collectives, stage bytes
and recompute frontier) that is the executor oracle's walk
(``tests/support/oracle.py``); here: lowering counts, and every
recompute frontier of one search.
"""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from repro.actions import compile_program, with_tp_sync
from repro.actions.lowering import ExecutablePlan
from repro.actions.reorder import (
    Reorderer,
    ordering_entries,
    reorder_program,
)
from repro.actions.resources import StageResources
from repro.config import CostConfig, RunConfig
from repro.errors import SynthesisError, ValidationError
from repro.runtime import AbstractCosts
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

from conftest import make_config

COMM = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)


class TestReorderProgram:
    def test_rejects_non_permutations_and_blocking_collectives(self):
        program = compile_program(
            build_schedule(make_config("gpipe", 2, 2), COMM))
        orders = ordering_entries(program)
        orders[0] = orders[0][:-1]
        with pytest.raises(ValidationError, match="not a permutation"):
            reorder_program(program, orders)
        glued = with_tp_sync(program, {d: (d, d + 2) for d in range(2)},
                             64.0, 2.0)
        with pytest.raises(ValidationError, match="not +reorderable"):
            reorder_program(glued, ordering_entries(program))


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


class TestScorerRidesLegalitysOrder:
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

    def test_frontier_replays_size_bind_the_one_lowering(self):
        sched, oracle, resources, _ = searched(num_waves=2,
                                               recompute=True)
        ctx = SynthesisContext(sched, oracle, resources=resources)
        base = ctx.replay_for(None).plan
        for frontier in range(ctx.base_program.num_stages + 1):
            plan = ctx.replay_for(frontier).plan
            assert plan.codes is base.codes and plan.bound
            independent = compile_program(
                sched,
                boundary_bytes=lambda tag: oracle.tensor_nbytes(tag.stage),
                resources=resources.with_recompute_from(frontier))
            assert (plan.plan_key
                    == ExecutablePlan.lower(independent).plan_key)

    @pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
    def test_every_frontiers_score_equals_the_event_core(self, prefetch):
        """One permutation under every recompute frontier: each
        frontier's replay (its own cost column — re-run forwards — over
        the shared order) equals executing that frontier's program."""
        sched, oracle, resources, _ = searched(num_waves=2,
                                               recompute=True)
        run = RunConfig(prefetch=prefetch, batch_cross_comm=prefetch)
        ctx = SynthesisContext(sched, oracle, run, resources=resources)
        stages = ctx.base_program.num_stages
        rng = Random(5)
        ordering = ScheduleOrdering.from_program(ctx.base_program)
        for _ in range(6):
            try:
                _, cand = propose_mutation(rng, ctx.base_program,
                                           ordering, max_shift=3)
            except SynthesisError:
                continue
            if not ctx.checker.check(cand):
                ordering = cand
        makespans = set()
        for frontier in range(stages + 1):
            cand = ordering.with_frontier(frontier)
            scored = ctx.evaluate(cand)
            plan = ctx.plan_for(cand)
            timeline = execute_plan(plan, run).timeline
            assert scored.makespan == timeline.makespan
            assert (scored.bubble_ratio
                    == bubble_stats(timeline).bubble_ratio)
            makespans.add(scored.makespan)
        assert len(makespans) > 1  # the frontiers really cost differently

    def test_contended_runs_are_rejected(self):
        sched, oracle, _, _ = searched()
        with pytest.raises(SynthesisError, match="contention"):
            SynthesisContext(sched, oracle, RunConfig(contention=True))
