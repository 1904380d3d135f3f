"""Schedule synthesis: legality-checked mutation search over orderings.

The paper hand-designs 8 schedule families; ROADMAP item 3 asks whether
the action-list runtime can do better by *searching*.  This package
implements that search over the one degree of freedom the execution IR
leaves open — the per-device order of compute (and async collective)
actions:

* :mod:`ordering` — the immutable :class:`ScheduleOrdering` candidates
  are expressed in, extracted from / recompiled to a Program via
  :mod:`repro.actions.reorder`;
* :mod:`legality` — :func:`check_ordering` validates an arbitrary
  ordering against the program's dependency edges, memory capacity and
  collective placement rules, returning structured
  :class:`Violation`\\ s (the fuzz harness pins the verdict equal to
  "replay neither deadlocks nor OOMs");
* :mod:`mutations` — invertible local operators (adjacent swaps, block
  shifts, micro-batch wave shifts, collective-bucket moves, recompute
  boundary moves) with a seeded sampler;
* :mod:`timing` — :class:`~repro.synthesis.timing.TimedReplay`, a
  legal candidate's step time as one float pass over the topological
  order the legality check computed (``==`` the event core's);
* :mod:`search` — the hill-climb/beam searcher scoring candidates with
  it (thousands of candidates per second; ``synth_search`` in
  ``benchmarks/e2e``);
* :mod:`serialize` — replayable JSON schedules (ordering + plan_key +
  mutation provenance) for re-simulation and regression pinning.

The ``repro synthesize`` CLI is the front door; ``docs/synthesis.md``
documents operators, legality rules and the Hanayo-rediscovery recipe.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "legality": (
        "DEADLOCK_KINDS", "LegalityChecker", "OOM_KINDS", "Violation",
        "check_ordering", "is_legal",
    ),
    "mutations": (
        "MOVE_RECOMPUTE", "MUTATION_KINDS", "MoveRecomputeBoundary",
        "Mutation", "ReorderCollective", "ShiftEntry", "ShiftMicrobatch",
        "SwapAdjacent", "mutation_from_payload", "propose_mutation",
    ),
    "ordering": ("ScheduleOrdering", "gpipe_like_ordering"),
    "search": (
        "ScoredOrdering", "SearchConfig", "SearchResult", "SynthesisContext",
        "synthesize", "synthesize_families",
    ),
    "serialize": (
        "ReplayReport", "SCHEDULE_FORMAT", "load_schedule", "payload_for",
        "replay_payload", "save_schedule",
    ),
})
