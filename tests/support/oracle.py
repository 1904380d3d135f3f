"""The executor oracle: one strategy, one comparison.

Every executor of a cost-bound plan must agree bit for bit: the
reference interpreter (:mod:`support.events_ref`), ``execute_plan``,
``execute_batch`` and ``execute_many`` — which routes a congruence group
to a batch of one, lockstep, the contention driver, or the scalar core
as ``narrow`` / ``zero-time`` — and, for cluster cells, the record bytes
a sweep caches and the daemon serves, of a lane measured alone and
inside its batch; along a reordering walk, so must the synthesis
scorer.  :func:`cases` draws a :class:`Case`, plain data that a failure
prints and ``@example`` pins; :func:`assert_executors_agree` runs it
through all of them, checks :mod:`support.invariants` on the agreed
result and returns the routes the batched layer took.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, fields
from random import Random

import pytest
from hypothesis import strategies as st

from repro import profiling
from repro.actions import compile_program, with_gradient_sync
from repro.actions.lowering import ExecutablePlan
from repro.actions.reorder import ordering_entries, reorder_program
from repro.actions.resources import StageResources
from repro.analysis import (HybridLayout, HybridRequest,
                            build_hybrid_simulation,
                            measure_hybrid_throughput_batch)
from repro.cluster import get_cluster
from repro.config import CostConfig, RunConfig
from repro.errors import OutOfMemoryError, SchedulingError, SynthesisError
from repro.models import tiny_model
from repro.runtime import (AbstractCosts, PlanBatch, batched, execute_batch,
                           execute_many, execute_plan)
from repro.runtime.metrics import bubble_stats, compute_time_lower_bound
from repro.schedules import build_schedule
from repro.serve.codec import dumps_canonical
from repro.sweep.cache import result_to_record
from repro.synthesis import (DEADLOCK_KINDS, LegalityChecker, ScheduleOrdering,
                             propose_mutation)
from repro.synthesis.timing import TimedReplay

from conftest import ALL_SCHEMES, make_config
from support.binding import RandomCosts, op_seconds
from support.events_ref import execute_program_reference
from support.invariants import check_result, fold_of

#: the one differential budget: the synthesis fuzz walk length and the
#: oracle's example count both scale with it (CI runs 120)
N = int(os.environ.get("REPRO_SYNTH_FUZZ_N", "30"))
WIDE = batched.MIN_CONTENTION_LANES
CELL_SCHEMES = [s for s in ALL_SCHEMES
                if s[0] in ("gpipe", "dapple", "hanayo", "chimera-wave")]
#: (tp, p, d) of the cluster cases
LAYOUTS = ((1, 2, 2), (2, 2, 1), (2, 2, 2), (1, 4, 2))
#: cost tables no binary fraction represents, so float accumulation
#: order shows; the last is comm-free
INEXACT = ((1.0, 2.0, 0.25), (1.3, 2.1, 0.1), (0.7, 1.9, 0.5),
           (1.1, 2.3, 0.37), (1.0, 1.0, 0.0))
#: the capacity modes a draw picks from (see :func:`capacity`)
CAPS = ("none", "fit", "static", "under", 0.2, 0.5, 0.8)
#: the routes the default corpus must reach
ROUTES = frozenset({
    "alone", "lockstep", "contention-driver", "split", "no-split",
    "narrow", "zero-time", "static-oom:lockstep", "midrun-oom:lockstep",
    "static-oom:contention", "midrun-oom:contention", "deadlock",
    "collectives", "records"})


@dataclass(frozen=True)
class Lane:
    """``costs``: ``("random", seed, zero_time)`` (:class:`RandomCosts`),
    ``("config", t_f, t_b, t_c)`` (:class:`AbstractCosts`) or
    ``("cell", preset, size multiple, layers, micro-batch size)``."""

    costs: tuple
    cap: str | float | tuple[str, int] = "none"
    recompute: bool = False


@dataclass(frozen=True)
class Case:
    """Lanes over one schedule: cluster cells of a ``layout = (tp, d)``,
    or retimes of one compiled program — with seeded stage bytes
    (``resources``, checkpointed from ``frontier``), gradient rings, an
    optimizer-step tail, a seeded legal reordering (``walk``), or one
    device's order reversed into a deadlock."""

    scheme: str
    p: int
    b: int
    lanes: tuple[Lane, ...]
    w: int = 1
    prefetch: bool = True
    batching: bool = False
    contention: bool = False
    resources: int | None = None
    grad_sync: bool = False
    step: bool = False
    frontier: int | None = None
    walk: int | None = None
    deadlock: bool = False
    layout: tuple[int, int] | None = None


@st.composite
def cases(draw) -> Case:
    """family × P × B × W × prefetch × batched P2P × contention ×
    capacity × DP/TP on a preset cluster × model × micro-batch size ×
    cost columns × lane width (1, 2–7 or ≥ 8)."""
    n = draw(st.just(1) | st.integers(2, WIDE - 1)
             | st.integers(WIDE, WIDE + 2))
    flags = dict(prefetch=draw(st.booleans()), batching=draw(st.booleans()),
                 contention=draw(st.booleans()))
    if draw(st.integers(0, 3)) == 0:
        (scheme, kw), (tp, p, d) = draw(st.sampled_from(CELL_SCHEMES)), \
            draw(st.sampled_from(LAYOUTS))
        cell = st.tuples(st.just("cell"),
                         st.sampled_from(("FC", "TACC", "PC", "TC")),
                         st.sampled_from((1, 2)), st.sampled_from((16, 32)),
                         st.sampled_from((1, 2)))
        return Case(scheme, p, draw(st.sampled_from((2, 4))),
                    tuple(map(Lane, draw(st.lists(cell, min_size=n,
                                                  max_size=n)))),
                    w=kw.get("num_waves", 1), layout=(tp, d), **flags)
    scheme, kw = draw(st.sampled_from(ALL_SCHEMES))
    p, b = draw(st.sampled_from((2, 4))), draw(st.integers(1, 6))
    if scheme in ("gems", "chimera", "chimera-wave"):
        b += b % 2  # two directions
    deadlock = draw(st.integers(0, 9)) == 0
    capped = not deadlock and draw(st.booleans())
    resources = draw(st.integers(0, 2**16)) \
        if capped or draw(st.booleans()) else None
    lane = st.builds(
        Lane,
        st.tuples(st.just("random"), st.integers(0, 2**16), st.booleans())
        | st.sampled_from([("config",) + c for c in INEXACT]),
        st.sampled_from(CAPS) if capped else st.just("none"),
        st.booleans() if resources is not None else st.just(False))
    return Case(scheme, p, b, tuple(draw(st.lists(lane, min_size=n,
                                                   max_size=n))),
                w=kw.get("num_waves", 1), resources=resources,
                grad_sync=draw(st.booleans()), step=draw(st.booleans()),
                frontier=draw(st.none() | st.integers(0, 8)),
                walk=draw(st.none() | st.integers(0, 2**16)),
                deadlock=deadlock, **flags)


def random_transposition(rng: Random,
                         ordering: ScheduleOrdering) -> ScheduleOrdering:
    """Swap two random slots of a random device — usually illegal."""
    device = ordering.devices[rng.randrange(len(ordering.devices))]
    entries = list(ordering.entries(device))
    i, j = rng.randrange(len(entries)), rng.randrange(len(entries))
    entries[i], entries[j] = entries[j], entries[i]
    return ordering.replace_entries(device, entries)


def _walk(program, seed: int, oracle, steps: int = 12):
    """``program`` reordered by a seeded walk of mutations and random
    transpositions, kept where legal.  On the way, every candidate the
    checker orders scores ``==`` by the synthesis replay and by the
    event core executing the reordered program."""
    rng = Random(seed)
    checker = LegalityChecker(program)
    replay = TimedReplay(ExecutablePlan.lower(program, oracle))
    ordering = ScheduleOrdering.from_program(program)
    for step in range(steps):
        if step % 2:
            candidate = random_transposition(rng, ordering)
        else:
            try:
                _, candidate = propose_mutation(rng, program, ordering,
                                                max_shift=4)
            except SynthesisError:
                continue
        kinds = {v.kind for v in checker.check(candidate)}
        if kinds & DEADLOCK_KINDS:
            assert checker.order is None
            continue
        timeline = execute_plan(ExecutablePlan.lower(reorder_program(
            program, candidate.to_orders()), oracle)).timeline
        assert replay.score(checker.order) \
            == (timeline.makespan, bubble_stats(timeline).bubble_ratio)
        if not kinds:
            ordering = candidate
    return reorder_program(program, ordering.to_orders())


class Unplaceable(ValueError):
    """A mid-run capacity mode with no byte count strictly between
    static residency and the peak."""


def capacity(plan, mode) -> int | None:
    """The bytes of capacity ``mode`` for ``plan``: ``"none"``;
    ``"fit"``, one byte over the uncapped peak; ``"one"`` or
    ``"static"``, one byte, or one under static residency (a static
    refusal); ``"under"`` or ``("under", d)``, one byte under the peak,
    or under the ``d``-th device's own peak; or a fraction of the way
    from static residency to the peak.  The last three must abort
    mid-run: a value outside (static, peak) raises :class:`Unplaceable`
    rather than becoming another mode."""
    if mode == "none":
        return None
    static = max(plan.program.static_bytes.values())
    if mode in ("one", "static"):
        return 1 if mode == "one" else int(static) - 1
    peaks = execute_plan(plan).mem_peak
    peak = max(peaks.values())
    if mode == "fit":
        return int(peak) + 1
    if isinstance(mode, tuple):
        cap = int(peaks[sorted(peaks)[mode[1]]]) - 1
    else:
        cap = int(peak) - 1 if mode == "under" \
            else int(static + mode * (peak - static))
    if not static < cap < peak:
        raise Unplaceable(f"{mode!r}: {cap} not in ({static}, {peak})")
    return cap


def expected_oom(mode) -> str | None:
    """``"static"``, ``"midrun"`` or ``None``: how a lane under capacity
    ``mode`` must end."""
    if mode in ("none", "fit"):
        return None
    return "static" if mode in ("one", "static") else "midrun"


def build(case: Case, run: RunConfig):
    """``(plans, capacities, lower bounds, requests)`` of ``case``;
    ``requests`` (the cells as measurement requests) is ``None`` unless
    it is a cluster case."""
    if case.layout is not None:
        layout = HybridLayout(tp=case.layout[0], p=case.p, d=case.layout[1])
        plans, bounds, requests = [], [], []
        for lane in case.lanes:
            _, preset, mult, layers, mb = lane.costs
            cluster = get_cluster(preset, layout.devices * mult)
            model = tiny_model(num_layers=layers)
            cell = build_hybrid_simulation(case.scheme, cluster, model,
                                           layout, case.b, case.w, mb,
                                           run=run)
            plans.append(cell.plan)
            bounds.append(compute_time_lower_bound(
                cell.schedule, op_seconds(cell.oracle)))
            requests.append(HybridRequest(case.scheme, cluster, model,
                                          layout, case.b, case.w, mb))
        return plans, [None] * len(plans), bounds, requests
    sched = build_schedule(make_config(case.scheme, case.p, case.b,
                                       num_waves=case.w))
    stages = sched.num_stages
    resources = None
    if case.resources is not None:
        rng = Random(case.resources)
        resources = StageResources(
            weight_bytes=tuple(rng.choice((64.0, 96.0, 128.0))
                               for _ in range(stages)),
            activation_bytes=tuple(rng.choice((8.0, 12.0, 16.0, 24.0))
                                   for _ in range(stages)),
            boundary_bytes=rng.choice((0.0, 4.0)))
        if case.frontier is not None:
            resources = resources.with_recompute_from(
                min(case.frontier, stages))
    program = compile_program(sched, prefetch=case.prefetch,
                              batch_cross_comm=case.batching,
                              add_step=case.step, resources=resources)
    if case.grad_sync:
        program = with_gradient_sync(
            program, {d: (d, d + case.p, d + 2 * case.p)
                      for d in range(case.p)},
            {s: 64.0 * (s + 1) for s in range(stages)})
    if case.walk is not None:
        program = _walk(program, case.walk, AbstractCosts(
            CostConfig(*INEXACT[0]), case.p, stages))
    if case.deadlock:
        orders = ordering_entries(program)
        last = max(orders)
        orders[last] = orders[last][::-1]  # backwards before forwards
        program = reorder_program(program, orders)
    structures = {False: ExecutablePlan.lower(program)}
    if resources is not None:
        structures[True] = ExecutablePlan.lower(program.with_resources(
            program.resources.with_recompute_from(0)))
    plans, bounds = [], []
    for lane in case.lanes:
        kind, *args = lane.costs
        oracle = RandomCosts(args[0], case.p, stages, case.b, args[1]) \
            if kind == "random" \
            else AbstractCosts(CostConfig(*args), case.p, stages)
        plan = structures[lane.recompute].retime(oracle)
        plans.append(oracle.bind(plan) if kind == "random" else plan)
        bounds.append(compute_time_lower_bound(sched, op_seconds(oracle)))
    caps = [capacity(plan, lane.cap)
            for plan, lane in zip(plans, case.lanes)]
    return plans, caps, bounds, None


# -- comparison ---------------------------------------------------------------

def assert_result_equal(got, want) -> None:
    """Every :class:`EventResult` field, exact equality."""
    for field in fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), \
            field.name


def assert_same_oom(got, want) -> None:
    assert isinstance(got, OutOfMemoryError), got
    assert (got.device, got.peak_bytes, got.capacity_bytes) \
        == (want.device, want.peak_bytes, want.capacity_bytes)
    assert str(got) == str(want)


def assert_lanes_agree(out, wants) -> None:
    """A columnar result against per-lane scalar outcomes: the OOM
    triple, or the fold row on every column and the lane view on every
    field."""
    assert len(out) == len(wants)
    for k, want in enumerate(wants):
        if isinstance(want, OutOfMemoryError):
            assert out.lane(k) is None
            assert_same_oom(out.errors[k], want)
        else:
            assert out.errors[k] is None
            assert out.fold.row(k) == fold_of(want)
            assert_result_equal(out.lane(k), want)


def _outcome(execute, *args, **kw):
    try:
        return execute(*args, **kw)
    except (OutOfMemoryError, SchedulingError) as exc:
        return exc


def _counters() -> Counter:
    stats = profiling.batching_stats()
    out = Counter(batches=stats.batches, lanes=stats.lanes,
                  scalar=stats.scalar_cells,
                  recovered=stats.recovered_lanes, splits=stats.splits)
    out.update({f"occupancy {n}": v for n, v in stats.occupancy.items()})
    out.update({f"reason {r}": v
                for r, v in stats.fallback_reasons.items()})
    return out


def _static(plan, want) -> bool:
    return isinstance(want, OutOfMemoryError) and \
        want.capacity_bytes < max(plan.program.static_bytes.values())


def assert_executors_agree(case: Case) -> set[str]:
    """Run ``case`` through every executor; return the routes taken."""
    run = RunConfig(prefetch=case.prefetch, batch_cross_comm=case.batching,
                    contention=case.contention)
    plans, caps, bounds, requests = build(case, run)
    items = list(zip(plans, caps))
    groups: dict[str, list[int]] = {}
    for k, plan in enumerate(plans):
        groups.setdefault(plan.congruence_key, []).append(k)

    wants = []
    for plan, cap, bound in zip(plans, caps, bounds):
        ref = _outcome(execute_program_reference, plan.program, plan.costs,
                       run, capacity_bytes=cap)
        want = _outcome(execute_plan, plan, run, capacity_bytes=cap)
        assert type(want) is type(ref), (want, ref)
        if isinstance(ref, SchedulingError):
            # the event core names the wait cycle too
            assert str(want) == str(ref) \
                or str(want).startswith(f"{ref}; wait cycle: ")
        elif isinstance(ref, OutOfMemoryError):
            assert_same_oom(want, ref)
        else:
            assert_result_equal(want, ref)
            check_result(want, plan, run, bound,
                         exact=case.layout is None)
        wants.append(want)
    for lane, plan, want in zip(case.lanes, plans, wants):
        if not isinstance(want, SchedulingError):
            # the drawn capacity really refused, aborted or fit
            verdict = ("static" if _static(plan, want) else "midrun") \
                if isinstance(want, OutOfMemoryError) else None
            assert verdict == expected_oom(lane.cap), (lane.cap, want)

    if any(isinstance(w, SchedulingError) for w in wants):
        # deadlock is structural: every lane, every driver, one text
        assert all(str(w) == str(wants[0]) for w in wants)
        with pytest.raises(SchedulingError) as many:
            execute_many(items, run)
        assert str(many.value) == str(wants[0])
        for ids in groups.values():
            with pytest.raises(SchedulingError) as batch:
                execute_batch(PlanBatch.from_plans(
                    [plans[k] for k in ids]), run)
            assert str(batch.value) == str(wants[0])
        return {"deadlock"}

    before = _counters()
    assert_lanes_agree(execute_many(items, run), wants)
    moved = _counters() - before
    # execute_many's routing: every lane batched or blamed on a reason
    assert {k for k in moved if k.startswith("reason ")} \
        <= {"reason narrow", "reason zero-time"}
    if not run.contention:
        assert (moved["batches"], moved["lanes"], moved["scalar"]) \
            == (len(groups), len(plans), 0)
    else:
        narrow = [k for ids in groups.values() if len(ids) < WIDE
                  for k in ids]
        assert moved["reason narrow"] == len(narrow)
        assert moved["recovered"] + moved["reason zero-time"] + sum(
            _static(plans[k], wants[k]) for k in range(len(plans))
            if k not in narrow) == len(plans) - len(narrow)
    for ids in groups.values():
        assert_lanes_agree(
            execute_batch(PlanBatch.from_plans([plans[k] for k in ids],
                                               [caps[k] for k in ids]),
                          run),
            [wants[k] for k in ids])
    moved = _counters() - before

    routes = {k.split(" ")[1] for k in moved if k.startswith("reason ")}
    if not run.contention:
        routes.update("alone" if k == "occupancy 1" else "lockstep"
                      for k in moved if k.startswith("occupancy "))
    if moved["recovered"]:
        routes |= {"contention-driver",
                   "split" if moved["splits"] else "no-split"}
    for plan, want in zip(plans, wants):
        if isinstance(want, OutOfMemoryError):
            static = _static(plan, want)
            driver = "contention" if run.contention else "lockstep"
            if static or driver == "lockstep" \
                    or not batched._zero_time_transfers(plan):
                routes.add(f"{'static' if static else 'midrun'}-oom:"
                           f"{driver}")
        elif want.collectives:
            routes.add("collectives")
    if requests is not None:
        # a cell's cached and served bytes do not depend on its batch
        together = measure_hybrid_throughput_batch(requests, run)
        for req, outcome in zip(requests, together):
            [alone] = measure_hybrid_throughput_batch([req], run)
            assert dumps_canonical(result_to_record(alone)) \
                == dumps_canonical(result_to_record(outcome))
        routes.add("records")
    return routes
