"""Differential fuzz: legality verdicts pinned against real replays.

For every schedule family, a seeded random walk applies mutation
operators (plus adversarial random transpositions) to the program's own
ordering and, for each candidate:

* **legal** (no violations) — the rebuilt program must replay to
  completion, capacity armed (that the replay is right is the executor
  oracle's job: ``tests/test_executor_oracle.py``);
* **deadlock-classified** (``dep-inversion`` / ``cross-device-cycle``)
  — the replay must raise :class:`SchedulingError`, never hang;
* **capacity-classified** (no deadlock kinds) — the capacity-armed
  replay must raise :class:`OutOfMemoryError`;
* **semantic-only** (``collective-order``) — the replay still completes
  (collectives never block), which is exactly why those kinds are
  excluded from :data:`repro.synthesis.DEADLOCK_KINDS`.

Zero tolerance in both directions: a legal verdict that deadlocks or a
deadlock verdict that replays is a checker bug, and either fails here.

Every legal or semantic-only candidate is also scored the way the
searcher scores it — :class:`~repro.synthesis.timing.TimedReplay` over
the checker's topological order — and its ``(makespan, bubble_ratio)``
must be ``==`` the uncontended event core's, which in turn may not beat
:func:`~repro.runtime.metrics.compute_time_lower_bound`.

Every candidate is checked twice, the way the searcher checks it (by
repairing the walk of the ordering it was mutated from) and from
scratch: both must agree on the violation kinds and the
``dep-inversion`` list, a repaired cycle witness must be a real cycle
of the candidate's wait graph, and a repaired order must sort that
graph and score ``==`` the full check's.

``REPRO_SYNTH_FUZZ_N`` scales the per-family walk length (default 30 →
270 candidates across the 9 families; CI runs 120 → 1080).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.actions import compile_program
from repro.actions.lowering import ExecutablePlan
from repro.actions.resources import StageResources
from repro.config import CostConfig, RunConfig
from repro.errors import OutOfMemoryError, SchedulingError, SynthesisError
from repro.runtime import AbstractCosts, execute_program
from repro.runtime.events import execute_plan
from repro.runtime.metrics import bubble_stats, compute_time_lower_bound
from repro.schedules import build_schedule
from repro.synthesis import (
    DEADLOCK_KINDS,
    LegalityChecker,
    OOM_KINDS,
    ScheduleOrdering,
    propose_mutation,
)
from repro.synthesis.timing import TimedReplay
from repro.actions.reorder import reorder_program
from repro.actions.ops import CollectiveOp

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.binding import op_seconds
from support.oracle import N, random_transposition

COMM = CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)
#: durations no binary fraction represents: scores must still be ``==``
INEXACT = CostConfig(t_f=1.1, t_b=2.3, t_c=0.37)


def assert_replay_scores(replay, order, rebuilt, oracle, lower_bound):
    """The searcher's score of a candidate is the event core's."""
    plan = ExecutablePlan.lower(rebuilt, oracle)
    timeline = execute_plan(plan).timeline
    makespan, bubble_ratio = replay.score(order)
    assert makespan == timeline.makespan
    assert bubble_ratio == bubble_stats(timeline).bubble_ratio
    assert makespan >= lower_bound


def wait_graph(program, ordering):
    """Key-space wait graph: per-device compute order plus dataflow."""
    succ = {key: set() for key in program.ops}
    for _, entries in ordering.device_entries:
        seq = [e for e in entries if not isinstance(e, CollectiveOp)]
        for a, b in zip(seq, seq[1:]):
            succ[a].add(b)
    for key, deps in program.deps.items():
        for dep in deps:
            succ[dep.producer].add(key)
    return succ


def check_both(checker, replay, candidate, walk):
    """The full check, pinned against repairing ``walk`` (the walk of
    the ordering ``candidate`` was drawn from); returns the full
    check's violations and order, and the repaired walk."""
    violations = checker.check(candidate)
    order = checker.order
    repaired = checker.check(candidate, parent=walk)
    assert {v.kind for v in repaired} == {v.kind for v in violations}
    assert ([v for v in repaired if v.kind == "dep-inversion"]
            == [v for v in violations if v.kind == "dep-inversion"])
    graph = wait_graph(checker.program, candidate)
    for v in repaired:
        if v.kind == "cross-device-cycle":
            cycle = v.subject
            assert all(b in graph[a]
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    if order is None:
        assert checker.order is None
    else:
        keys = list(checker.program.ops)
        rank = {keys[i]: r for r, i in enumerate(checker.order)}
        assert len(rank) == len(keys)
        assert all(rank[a] < rank[b]
                   for a, succ in graph.items() for b in succ)
        assert replay.score(checker.order) == replay.score(order)
    return violations, order, checker.walk


def run_walk(schedule, program, oracle, seed, steps, run=None,
             capacity_bytes=None, frontier=None):
    """The shared fuzz loop; returns counts of legal, deadlocked, OOM,
    semantic-only and frontier-moving candidates."""
    run = run or RunConfig()
    rng = Random(seed)
    checker = LegalityChecker(program, capacity_bytes)
    replay = TimedReplay(ExecutablePlan.lower(program, oracle))
    lower_bound = compute_time_lower_bound(schedule, op_seconds(oracle))
    ordering = ScheduleOrdering.from_program(program, frontier)
    checker.check(ordering)
    walk = checker.walk
    counts = {"legal": 0, "deadlock": 0, "oom": 0, "semantic": 0,
              "frontier": 0}
    for step in range(steps):
        if step % 3 == 2:
            candidate = random_transposition(rng, ordering)
        else:
            try:
                _, candidate = propose_mutation(rng, program, ordering,
                                                max_shift=4)
            except SynthesisError:
                continue
        violations, order, repaired = check_both(checker, replay,
                                                 candidate, walk)
        kinds = {v.kind for v in violations}
        # mutations and transpositions only move entries: never
        # structural
        assert not kinds & {"missing-op", "extra-op", "device-set"}
        base, moved_to = program, candidate.recompute_frontier
        if moved_to is not None:
            base = program.with_resources(
                program.resources.with_recompute_from(moved_to))
            counts["frontier"] += moved_to != ordering.recompute_frontier
        rebuilt = reorder_program(base, candidate.to_orders())
        expected = None
        if kinds & DEADLOCK_KINDS:
            counts["deadlock"] += 1
            # a candidate can be deadlocked AND over capacity; replay
            # order decides which error fires first
            expected = (SchedulingError, OutOfMemoryError) \
                if kinds & OOM_KINDS else SchedulingError
        elif kinds & OOM_KINDS:
            counts["oom"] += 1
            expected = OutOfMemoryError
        if expected is not None:
            with pytest.raises(expected):
                execute_program(rebuilt, oracle, run,
                                capacity_bytes=capacity_bytes)
            continue
        # legal or semantic-only: must replay to completion
        execute_program(rebuilt, oracle, run,
                        capacity_bytes=capacity_bytes)
        assert_replay_scores(replay, order, rebuilt, oracle, lower_bound)
        if kinds:
            assert kinds <= {"collective-order"}
            counts["semantic"] += 1
            continue  # keep walking from a fully legal point only
        counts["legal"] += 1
        ordering, walk = candidate, repaired
    return counts


def walk_family(param, prefetch, costs):
    scheme, kw = param
    cfg = make_config(scheme, 4, 4, **kw)
    sched = build_schedule(cfg, costs)
    oracle = AbstractCosts(costs, 4, sched.num_stages)
    program = compile_program(sched, prefetch=prefetch,
                              batch_cross_comm=prefetch)
    run = RunConfig(prefetch=prefetch, batch_cross_comm=prefetch)
    # split the budget across the two prefetch modes so the default
    # tier-1 run stays fast while CI (N=120) covers 9 * 2 * 60;
    # NB: not hash() — that is per-process randomized
    seed = (sum(map(ord, scheme)) * 8
            + kw.get("num_waves", 1) * 2 + int(prefetch))
    counts = run_walk(sched, program, oracle, seed=seed,
                      steps=max(N // 2, 5), run=run)
    assert counts["legal"] > 0
    assert counts["deadlock"] > 0  # transpositions do break deps


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestFuzzFamilies:
    def test_verdicts_match_replay(self, param, prefetch):
        walk_family(param, prefetch, COMM)

    def test_scores_exact_under_inexact_costs(self, param, prefetch):
        walk_family(param, prefetch, INEXACT)


class TestFuzzWithCapacity:
    """Resource-annotated walks: the capacity verdict is exact."""

    @pytest.mark.parametrize("param",
                             [("dapple", {}), ("async-1f1b", {}),
                              ("hanayo", {"num_waves": 1})],
                             ids=scheme_id)
    def test_capacity_verdict_matches_oom(self, param):
        from repro.types import OpKind

        scheme, kw = param
        # B > P so the 1F1B-like start's warmup peak sits well under
        # the all-forwards-live maximum: the start is legal under the
        # cap, while walk stretches that hoist extra forwards overflow
        cfg = make_config(scheme, 4, 8, **kw)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 4, sched.num_stages)
        stages = sched.num_stages
        res = StageResources(weight_bytes=(0.0,) * stages,
                             activation_bytes=(100.0,) * stages)
        program = compile_program(
            sched, boundary_bytes=lambda tag: 0.0, resources=res)
        ordering = ScheduleOrdering.from_program(program)
        start_peak = 0.0
        for d in ordering.devices:
            level = 0.0
            for e in ordering.entries(d):
                if isinstance(e, CollectiveOp):
                    continue
                level += 100.0 if e[0] is OpKind.FORWARD else -100.0
                start_peak = max(start_peak, level)
        # headroom below one activation: hoisting any extra forward
        # past the start's warmup peak overflows
        capacity = int(start_peak + 50)
        counts = run_walk(sched, program, oracle, seed=7, steps=N,
                          capacity_bytes=capacity)
        assert counts["legal"] > 0
        assert counts["oom"] > 0

    def test_recompute_frontier_walk(self):
        """A walk whose ordering carries a movable recompute frontier:
        frontier moves reach the repair as orderings with the parent's
        own entries, and the capacity verdict follows the frontier's
        activation footprint."""
        sched = build_schedule(make_config("dapple", 4, 8), COMM)
        oracle = AbstractCosts(COMM, 4, sched.num_stages)
        stages = sched.num_stages
        res = StageResources(weight_bytes=(0.0,) * stages,
                             activation_bytes=(100.0,) * stages,
                             boundary_bytes=10.0)
        program = compile_program(
            sched, boundary_bytes=lambda tag: 0.0, resources=res)
        # dapple's 1F1B warmup holds at most P activations per device
        counts = run_walk(sched, program, oracle, seed=1, steps=N,
                          capacity_bytes=450, frontier=stages)
        assert counts["legal"] > 0
        assert counts["oom"] > 0
        assert counts["frontier"] > 0


class TestFuzzWithCollectives:
    def test_semantic_violations_still_replay(self):
        from repro.actions import with_gradient_sync

        cfg = make_config("dapple", 4, 4)
        sched = build_schedule(cfg, COMM)
        oracle = AbstractCosts(COMM, 4, sched.num_stages)
        program = compile_program(sched)
        annotated = with_gradient_sync(
            program, {d: (d, d + 4) for d in range(4)},
            {s: 64.0 for s in range(4)})
        counts = run_walk(sched, annotated, oracle, seed=11, steps=N)
        assert counts["legal"] > 0
        # moving grad-sync buckets around produces semantic-only cases
        assert counts["semantic"] > 0


def test_total_budget_note():
    """The default budget keeps a floor of ≥200 mutated
    schedules across the family matrix (9 families x 2 prefetch modes
    x N/2 plus the capacity and collective walks)."""
    assert 9 * 2 * max(N // 2, 5) + 3 * N + N >= 200
