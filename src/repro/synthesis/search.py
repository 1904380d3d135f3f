"""Hill-climb/beam search over legality-checked orderings.

The loop is deliberately plain: keep a small beam of the best scored
orderings, draw seeded mutations from beam members, discard illegal or
already-seen candidates, score the survivors by *simulated step time*,
and stop after ``patience`` rounds without improvement.  What makes it
fast enough to matter is the evaluation path, not the loop:

* legality (:func:`~repro.synthesis.legality.check_ordering`) is a few
  linear passes and rejects deadlocks/OOMs before any event is
  simulated;
* a candidate never goes back through a schedule, nor through a
  :class:`~repro.actions.program.Program`: every candidate of a search
  is a permutation of one program, so the base is lowered once (per
  recompute frontier: size-bound once) and
  :meth:`repro.actions.reorder.Reorderer.plan` re-emits its plan in
  the candidate's order, over integers;
* the candidate adopts the base plan's lazily-filled compute cost
  column (:func:`repro.analysis.plans.candidate_plan`, the one builder
  every scoring path calls), so the cost oracle is consulted once per
  distinct compute across the *whole search*, not once per candidate.

Only what must be a program still is one: the winner's ``plan_key``
(:meth:`SynthesisContext.plan_for`) is lowered from the reordered
``Program``, the way a replay of the serialized schedule recomputes it.

The ``synth_search`` workload of ``benchmarks/e2e`` measures the
resulting candidate throughput; the determinism contract (same seed ⇒
same best ordering, same provenance) is pinned by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random
from typing import Iterable, Mapping

from ..actions.lowering import ExecutablePlan, RetimeBuffers
from ..actions.program import compile_program
from ..actions.resources import StageResources
from ..analysis.plans import PlanEntry, candidate_plan
from ..config import RunConfig
from ..errors import OutOfMemoryError, SchedulingError, SynthesisError
from ..runtime.batched import PlanBatch, execute_batch
from ..runtime.costs import CostOracle
from ..runtime.events import execute_plan
from ..runtime.metrics import bubble_stats
from ..schedules.base import Schedule
from ..types import OpKind, ScheduleOp
from .legality import LegalityChecker
from .mutations import Mutation, default_operators, propose_mutation
from .ordering import ScheduleOrdering, gpipe_like_ordering


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
    infeasible: int

    @property
    def improved(self) -> bool:
        return self.best.makespan < self.start.makespan

    def describe(self) -> str:
        return (f"synthesize[{self.name}]: start {self.start.makespan:.3f}"
                f" -> best {self.best.makespan:.3f} "
                f"(bubble {self.best.bubble_ratio:.4f}) after "
                f"{self.rounds_run} rounds, {self.evaluated} evaluated, "
                f"{self.illegal} illegal, {self.infeasible} infeasible, "
                f"{len(self.best.provenance)} mutations")


class _RecomputeCosts:
    """Charge re-run forwards to backwards of checkpointed stages.

    Stages at or past the frontier keep only their boundary tensor, so
    their backward re-executes the stage forward first.  Everything
    except :meth:`duration` delegates to the wrapped oracle — transfer
    times, ring steps and rank mapping are recompute-blind.
    """

    def __init__(self, inner: CostOracle, frontier: int) -> None:
        self._inner = inner
        self._frontier = frontier

    def duration(self, op: ScheduleOp) -> float:
        d = self._inner.duration(op)
        if op.kind is OpKind.BACKWARD and op.stage >= self._frontier:
            d += self._inner.duration(replace(op, kind=OpKind.FORWARD))
        return d

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SynthesisContext:
    """Shared state of one search: base program, per-frontier plans.

    Compiles the schedule exactly like :func:`repro.runtime.simulate`
    (byte-accurate boundary tensors from the oracle), then memoizes,
    per recompute frontier, one entry: the resource-adjusted program
    and its base plan, bound to the frontier's (wrapped) oracle, whose
    compute-cost column every candidate of that frontier shares.
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
        self._entries: dict[int | None, PlanEntry] = {}
        #: scoring scratch: every candidate re-times into these columns
        #: (a scored plan is dropped before the next one binds, so the
        #: aliasing contract of RetimeBuffers holds by construction)
        self._score_buffers = RetimeBuffers()
        self.evaluated = 0
        self.illegal = 0
        self.infeasible = 0

    # -- per-frontier memos ----------------------------------------------

    def entry_for(self, frontier: int | None) -> PlanEntry:
        found = self._entries.get(frontier)
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
            plan = self.entry_for(None).plan.with_sizes(program)
            if frontier < program.num_stages:
                costs = _RecomputeCosts(costs, frontier)
        entry = PlanEntry(schedule=self.schedule, program=program,
                          plan=plan.retime(costs))
        return self._entries.setdefault(frontier, entry)

    def _candidate_plan(self, ordering: ScheduleOrdering, check: bool,
                        scratch: bool = False) -> ExecutablePlan:
        """The bound plan a candidate is scored on (lowered route).

        ``scratch=True`` re-times into the context's shared
        :class:`RetimeBuffers` — the returned plan is only valid until
        the next scratch candidate binds (the score-then-drop loop).
        """
        return candidate_plan(
            self.entry_for(ordering.recompute_frontier),
            ordering.to_orders(), check=check,
            buffers=self._score_buffers if scratch else None)

    # -- candidate evaluation --------------------------------------------

    def evaluate(
        self,
        ordering: ScheduleOrdering,
        provenance: tuple[ProvenanceStep, ...] = (),
        structural: bool = True,
    ) -> ScoredOrdering | None:
        """Score a candidate, or ``None`` if illegal/infeasible.

        ``structural=False`` skips the permutation check — safe for
        mutation-produced orderings, whose operators only move entries.
        """
        self.evaluated += 1
        violations = self.checker.check(ordering, structural=structural)
        if violations:
            self.illegal += 1
            return None
        return self._score_lean(
            ordering, self._candidate_plan(ordering, check=structural,
                                           scratch=True), provenance)

    def evaluate_round(
        self,
        orderings: list[ScheduleOrdering],
    ) -> list[ScoredOrdering | None]:
        """Score one round's deduplicated candidates back-to-back.

        Candidates of a round are *reorderings* — each compiles to its
        own program with its own ``plan_key`` — but candidates sharing
        a permutation and differing only in recompute frontier are
        structurally *congruent* (the frontier moves costs and memory
        deltas, never actions or edges), so such groups score as one
        lockstep batch through the batched runtime.  Lone candidates
        keep the scratch scalar path: they re-time into the context's
        single :class:`RetimeBuffers` and execute at ``detail="lean"``,
        one event pass with no column allocations (batched lanes bind
        fresh columns instead — buffer columns alias, and a batch needs
        every lane's columns live at once — and are scored straight
        from the batch's fold columns).  Scores are bit-identical
        either way (the batched-runtime invariant), so the search
        trajectory is unchanged.  Verdicts come back aligned with
        ``orderings`` (``None`` = illegal or infeasible).
        """
        verdicts: list[ScoredOrdering | None] = [None] * len(orderings)
        groups: dict[ScheduleOrdering, list[int]] = {}
        for i, ordering in enumerate(orderings):
            groups.setdefault(ordering.with_frontier(None), []).append(i)
        for idxs in groups.values():
            if len(idxs) == 1:
                i = idxs[0]
                verdicts[i] = self.evaluate(orderings[i],
                                            structural=False)
                continue
            legal: list[int] = []
            for i in idxs:
                self.evaluated += 1
                if self.checker.check(orderings[i], structural=False):
                    self.illegal += 1
                else:
                    legal.append(i)
            if not legal:
                continue
            plans = [self._candidate_plan(orderings[i], check=False)
                     for i in legal]
            try:
                stacked = PlanBatch.from_plans(
                    plans, [self.capacity_bytes] * len(plans))
            except SchedulingError:  # pragma: no cover - defensive
                # frontier congruence should hold by construction;
                # score the group scalar rather than abort the search
                for i, plan in zip(legal, plans):
                    verdicts[i] = self._score_lean(orderings[i], plan)
                continue
            batch = execute_batch(stacked, self.run)
            for i, err, makespan, bubble in zip(
                    legal, batch.errors, batch.fold.makespan.tolist(),
                    batch.fold.bubble_ratio.tolist()):
                if err is not None:
                    self.infeasible += 1
                    continue
                verdicts[i] = ScoredOrdering(
                    ordering=orderings[i],
                    makespan=makespan,
                    bubble_ratio=bubble,
                )
        return verdicts

    def _score_lean(
        self, ordering: ScheduleOrdering, plan: ExecutablePlan,
        provenance: tuple[ProvenanceStep, ...] = (),
    ) -> ScoredOrdering | None:
        """Scalar lean scoring of an already-lowered candidate."""
        try:
            result = execute_plan(plan, self.run,
                                  capacity_bytes=self.capacity_bytes,
                                  detail="lean")
        except OutOfMemoryError:  # pragma: no cover - legality is exact
            self.infeasible += 1
            return None
        timeline = result.timeline
        return ScoredOrdering(
            ordering=ordering,
            makespan=timeline.makespan,
            bubble_ratio=bubble_stats(timeline).bubble_ratio,
            provenance=provenance,
        )

    def plan_for(self, ordering: ScheduleOrdering) -> ExecutablePlan:
        """A bound plan of a (legal) ordering — for keys and replays:
        lowered from the reordered ``Program``, as whoever replays the
        serialized ordering will lower it."""
        entry = self.entry_for(ordering.recompute_frontier)
        return ExecutablePlan.lower(
            entry.reorderer.reorder(ordering.to_orders()), entry.plan.costs)


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
                                      bubble_ratio=math.inf)
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
        # any simulation (the trajectory stays a pure function of the
        # seed), and the scorer runs the survivors as one round batch
        proposals: list[tuple] = []
        for _ in range(config.samples_per_round):
            parent = beam[rng.randrange(len(beam))]
            try:
                mutation, mutated = propose_mutation(
                    rng, ctx.base_program, parent.ordering,
                    operators=operators, max_shift=config.max_shift)
            except SynthesisError:
                continue
            if mutated in seen:
                continue
            seen.add(mutated)
            proposals.append((mutation, mutated, parent))
        fresh: list[ScoredOrdering] = []
        verdicts = ctx.evaluate_round([m for _, m, _ in proposals])
        for (mutation, _mutated, parent), scored in zip(proposals,
                                                        verdicts):
            if scored is None:
                continue
            step = ProvenanceStep(round=round_no, mutation=mutation,
                                  makespan=scored.makespan,
                                  bubble_ratio=scored.bubble_ratio)
            fresh.append(replace(scored,
                                 provenance=parent.provenance + (step,)))
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
        infeasible=ctx.infeasible,
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
