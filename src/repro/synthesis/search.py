"""Hill-climb/beam search over legality-checked orderings.

The loop is deliberately plain: keep a small beam of the best scored
orderings, draw seeded mutations from beam members, discard illegal or
already-seen candidates, score the survivors by *simulated step time*,
and stop after ``patience`` rounds without improvement.  What makes it
fast enough to matter is the evaluation path, not the loop:

* legality (:class:`~repro.synthesis.legality.LegalityChecker`)
  rejects deadlocks, OOMs and misplaced collectives before anything is
  timed.  Every candidate is a mutation of a scored beam member, and
  each scored candidate carries its check's
  :class:`~repro.synthesis.legality.Walk`, so the deadlock rule
  repairs the parent's topological order around the moved entries
  instead of re-walking the whole wait graph;
* a legal candidate is scored on the topological order that check
  already computed: :class:`~repro.synthesis.timing.TimedReplay` runs
  one float recurrence over it — no candidate ``Program``, no lowered
  plan, no event loop — and is ``==`` to executing the reordered
  program uncontended;
* per recompute frontier the base is size-bound and cost-bound once,
  and every candidate of that frontier shares its compute-cost column,
  so the cost oracle is bound once per frontier.

Only what must be a program still is one: the winner's ``plan_key``
(:meth:`SynthesisContext.plan_for`) is lowered from the reordered
``Program``, the way a replay of the serialized schedule recomputes it.

The ``synth_search`` workload of ``benchmarks/e2e`` measures the
resulting candidate throughput; the determinism contract (same seed ⇒
same best ordering, same provenance) is pinned by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Mapping

from ..actions.lowering import ExecutablePlan
from ..actions.program import compile_program
from ..actions.reorder import reorder_program
from ..actions.resources import StageResources
from ..config import RunConfig
from ..errors import SynthesisError
from ..runtime.costs import CostOracle
from ..schedules.base import Schedule
from .legality import LegalityChecker, Walk
from .mutations import Mutation, default_operators, propose_mutation
from .ordering import ScheduleOrdering, gpipe_like_ordering
from .timing import TimedReplay


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one synthesis run (all deterministic given ``seed``)."""

    seed: int = 0
    rounds: int = 60
    samples_per_round: int = 32
    beam_width: int = 4
    patience: int = 12
    max_shift: int = 4
    #: operator kinds to draw from; None = every applicable family
    operators: tuple[str, ...] | None = None
    #: give candidates a movable recompute frontier (needs resources)
    recompute: bool = False


@dataclass(frozen=True)
class ProvenanceStep:
    """One applied mutation on the path from the start to a candidate."""

    round: int
    mutation: Mutation
    makespan: float
    bubble_ratio: float


@dataclass(frozen=True)
class ScoredOrdering:
    """A legality-checked, simulated candidate."""

    ordering: ScheduleOrdering
    makespan: float
    bubble_ratio: float
    provenance: tuple[ProvenanceStep, ...] = ()
    #: the legality check's walk, which its mutations' checks repair
    walk: Walk | None = field(default=None, compare=False, repr=False)

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.makespan)


@dataclass
class SearchResult:
    """Everything one :func:`synthesize` call produced."""

    name: str
    config: SearchConfig
    start: ScoredOrdering
    best: ScoredOrdering
    #: structural content hash of the best candidate's lowered plan —
    #: the replay pin serialized schedules carry
    plan_key: str
    rounds_run: int
    evaluated: int
    illegal: int

    @property
    def improved(self) -> bool:
        return self.best.makespan < self.start.makespan

    def describe(self) -> str:
        return (f"synthesize[{self.name}]: start {self.start.makespan:.3f}"
                f" -> best {self.best.makespan:.3f} "
                f"(bubble {self.best.bubble_ratio:.4f}) after "
                f"{self.rounds_run} rounds, {self.evaluated} evaluated, "
                f"{self.illegal} illegal, "
                f"{len(self.best.provenance)} mutations")


class SynthesisContext:
    """Shared state of one search: base program, per-frontier timing.

    Compiles the schedule exactly like :func:`repro.runtime.simulate`
    (byte-accurate boundary tensors from the oracle), then memoizes,
    per recompute frontier, one :class:`TimedReplay`: the
    resource-adjusted program's plan bound to the frontier's
    recompute-charged oracle, whose compute-cost column every candidate
    of that frontier shares.  The replay times uncontended runs only, so a contended
    ``run`` is rejected rather than silently scored without contention.
    """

    def __init__(
        self,
        schedule: Schedule,
        costs: CostOracle,
        run: RunConfig | None = None,
        *,
        resources: StageResources | None = None,
        capacity_bytes: int | None = None,
    ) -> None:
        self.schedule = schedule
        self.costs = costs
        self.run = run or RunConfig()
        self.capacity_bytes = capacity_bytes
        if self.run.contention:
            raise SynthesisError(
                f"{schedule.name}: the search scores uncontended runs; "
                "contention=True is not supported"
            )
        if capacity_bytes is not None and resources is None:
            raise SynthesisError(
                f"{schedule.name}: a capacity cap needs resources"
            )
        self.base_program = compile_program(
            schedule,
            prefetch=self.run.prefetch,
            batch_cross_comm=self.run.batch_cross_comm,
            add_step=False,
            boundary_bytes=lambda tag: costs.tensor_nbytes(tag.stage),
            resources=resources,
        )
        self.checker = LegalityChecker(self.base_program, capacity_bytes)
        self._replays: dict[int | None, TimedReplay] = {}
        self.evaluated = 0
        self.illegal = 0

    def replay_for(self, frontier: int | None) -> TimedReplay:
        """The timing tables of one recompute frontier (memoized)."""
        found = self._replays.get(frontier)
        if found is not None:
            return found
        program, costs = self.base_program, self.costs
        if frontier is None:
            plan = ExecutablePlan.lower(program)
        else:
            # a frontier changes only ``resources`` (and, below the
            # last stage, what a backward costs): size-bind the one
            # lowering instead of repeating it
            program = program.with_resources(
                program.resources.with_recompute_from(frontier))
            plan = self.replay_for(None).plan.with_sizes(program)
            if frontier < program.num_stages:
                costs = costs.with_recompute_from(frontier)
        return self._replays.setdefault(frontier,
                                        TimedReplay(plan.retime(costs)))

    def evaluate(
        self,
        ordering: ScheduleOrdering,
        parent: Walk | None = None,
    ) -> ScoredOrdering | None:
        """Score a candidate, or ``None`` if illegal.

        ``parent`` is the walk of the scored ordering ``ordering`` is a
        mutation of: legality then repairs it instead of checking from
        scratch (:meth:`LegalityChecker.check`).
        """
        self.evaluated += 1
        checker = self.checker
        if checker.check(ordering, parent=parent):
            self.illegal += 1
            return None
        makespan, bubble_ratio = self.replay_for(
            ordering.recompute_frontier).score(checker.order)
        return ScoredOrdering(ordering=ordering, makespan=makespan,
                              bubble_ratio=bubble_ratio, walk=checker.walk)

    def plan_for(self, ordering: ScheduleOrdering) -> ExecutablePlan:
        """A bound plan of a (legal) ordering — for keys and replays:
        lowered from the reordered ``Program``, as whoever replays the
        serialized ordering will lower it."""
        plan = self.replay_for(ordering.recompute_frontier).plan
        return ExecutablePlan.lower(
            reorder_program(plan.program, ordering.to_orders()), plan.costs)


def _start_ordering(
    ctx: SynthesisContext,
    config: SearchConfig,
    start: ScheduleOrdering | str | None,
) -> ScheduleOrdering:
    program = ctx.base_program
    if isinstance(start, ScheduleOrdering):
        ordering = start
    elif start in (None, "program"):
        ordering = ScheduleOrdering.from_program(program)
    elif start == "gpipe":
        ordering = gpipe_like_ordering(program)
    else:
        raise SynthesisError(
            f"unknown start {start!r}; expected an ordering, "
            "'program' or 'gpipe'"
        )
    # over the checker's own table, so no check has to re-encode it
    ordering = ctx.checker.table.adopt(ordering)
    if (config.recompute and ordering.recompute_frontier is None
            and program.resources is not None):
        # Movable frontier, starting at "recompute nothing".
        ordering = ordering.with_frontier(program.num_stages)
    return ordering


def synthesize(
    schedule: Schedule,
    costs: CostOracle,
    config: SearchConfig | None = None,
    *,
    run: RunConfig | None = None,
    resources: StageResources | None = None,
    capacity_bytes: int | None = None,
    start: ScheduleOrdering | str | None = None,
    name: str | None = None,
) -> SearchResult:
    """Search for a faster legal ordering of ``schedule`` under ``costs``.

    ``start`` picks the initial point: the compiled program's own order
    (default), ``"gpipe"`` for the all-forwards-then-all-backwards
    discipline (the canonical bad start of the rediscovery demo), or an
    explicit :class:`ScheduleOrdering`.  A start that breaks dependency
    legality raises; a start that merely busts the capacity cap is
    admitted at infinite score so the search can mutate *into*
    feasibility.

    Deterministic: one ``random.Random(config.seed)`` drives every
    draw, candidates are deduplicated by value, and ties break by
    discovery order — the same call yields the same best ordering,
    provenance and plan key, which the serialization round-trip tests
    rely on.
    """
    config = config or SearchConfig()
    ctx = SynthesisContext(schedule, costs, run, resources=resources,
                           capacity_bytes=capacity_bytes)
    rng = Random(config.seed)
    start_ordering = _start_ordering(ctx, config, start)

    violations = ctx.checker.check(start_ordering)
    hard = [v for v in violations if v.kind not in ("capacity",)]
    if hard:
        raise SynthesisError(
            f"{schedule.name}: start ordering is illegal: "
            + "; ".join(str(v) for v in hard[:3])
        )
    if violations:  # capacity-only: admit at infinite score
        ctx.evaluated += 1
        ctx.illegal += 1
        scored_start = ScoredOrdering(ordering=start_ordering,
                                      makespan=math.inf,
                                      bubble_ratio=math.inf,
                                      walk=ctx.checker.walk)
    else:
        scored_start = ctx.evaluate(start_ordering)
        assert scored_start is not None

    operators = (tuple(config.operators) if config.operators is not None
                 else tuple(default_operators(ctx.base_program,
                                              start_ordering)))
    beam: list[ScoredOrdering] = [scored_start]
    seen: set[ScheduleOrdering] = {start_ordering}
    best = scored_start
    stall = 0
    rounds_run = 0
    for round_no in range(config.rounds):
        rounds_run = round_no + 1
        # propose-then-score: all of a round's rng draws happen before
        # any scoring (the trajectory stays a pure function of the seed)
        proposals: list[tuple] = []
        for _ in range(config.samples_per_round):
            parent = rng.choice(beam)
            try:
                mutation, mutated = propose_mutation(
                    rng, ctx.base_program, parent.ordering,
                    operators=operators, max_shift=config.max_shift)
            except SynthesisError:
                continue
            size = len(seen)
            seen.add(mutated)
            if len(seen) == size:
                continue    # already seen
            proposals.append((mutation, mutated, parent))
        fresh: list[ScoredOrdering] = []
        for mutation, mutated, parent in proposals:
            scored = ctx.evaluate(mutated, parent=parent.walk)
            if scored is None:
                continue
            step = ProvenanceStep(round_no, mutation, scored.makespan,
                                  scored.bubble_ratio)
            fresh.append(ScoredOrdering(
                mutated, scored.makespan, scored.bubble_ratio,
                parent.provenance + (step,), scored.walk))
        # Stable sort: ties keep discovery order, so the beam (and
        # hence the whole trajectory) is a pure function of the seed.
        beam = sorted(beam + fresh,
                      key=lambda s: s.makespan)[:config.beam_width]
        if beam[0].makespan < best.makespan:
            best = beam[0]
            stall = 0
        else:
            stall += 1
        if stall >= config.patience:
            break

    plan_key = (ctx.plan_for(best.ordering).plan_key
                if best.feasible else "")
    return SearchResult(
        name=name or schedule.name,
        config=config,
        start=scored_start,
        best=best,
        plan_key=plan_key,
        rounds_run=rounds_run,
        evaluated=ctx.evaluated,
        illegal=ctx.illegal,
    )


def synthesize_families(
    schedules: Iterable[Schedule] | Mapping[str, Schedule],
    costs,
    config: SearchConfig | None = None,
    *,
    run: RunConfig | None = None,
    resources: StageResources | None = None,
    capacity_bytes: int | None = None,
    start: ScheduleOrdering | str | None = None,
) -> dict[str, SearchResult]:
    """Run one search per schedule family, from each family's own start.

    ``costs`` is a single :class:`CostOracle` shared by every family,
    or — because families of one shape can differ in stage count, and
    e.g. :class:`~repro.runtime.costs.AbstractCosts` is per-stage — a
    callable ``schedule -> CostOracle`` building each family's oracle.

    Because every family's compiled ordering is an admissible start and
    the search never accepts a worse best, the overall winner matches
    or beats the best hand-designed family by construction (on the
    searched metric; see ``docs/synthesis.md`` for the demo configs).
    """
    if isinstance(schedules, Mapping):
        named = list(schedules.items())
    else:
        named = [(s.name, s) for s in schedules]
    return {
        label: synthesize(schedule,
                          costs(schedule) if callable(costs) else costs,
                          config, run=run, resources=resources,
                          capacity_bytes=capacity_bytes, start=start,
                          name=label)
        for label, schedule in named
    }
