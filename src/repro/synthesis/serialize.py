"""Replayable schedule serialization: JSON ordering + plan key.

A found schedule is only as good as its replay: the searcher emits a
JSON payload that carries (a) everything needed to rebuild the base
program bit-identically — scheme shape, compile flags, abstract cost
triple, optional resource model — (b) the per-device action ordering
itself, (c) the structural ``plan_key`` of the winning candidate's
lowered plan, and (d) provenance: the seed and the mutation path that
produced it.  :func:`replay_payload` reconstructs the program, recompiles
the ordering, *verifies the plan key matches* (a drifted compiler or a
hand-edited file fails loudly with :class:`SynthesisError`, never
silently re-times a different schedule), and re-simulates — so a
committed schedule doubles as a regression pin.

The payload is deliberately restricted to abstract-cost pipelines
(:class:`~repro.config.PipelineConfig` + :class:`~repro.config.CostConfig`
+ optional :class:`~repro.actions.resources.StageResources`): those are
fully value-determined, which is what makes byte-exact replay possible
from JSON alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..actions.ops import CollectiveKind, CollectiveOp
from ..actions.reorder import OrderEntry
from ..actions.resources import StageResources
from ..config import CostConfig, PipelineConfig, RunConfig
from ..errors import SynthesisError
from ..runtime.costs import AbstractCosts
from ..runtime.metrics import bubble_stats
from ..types import OpKind
from .search import SearchResult

#: payload format version; bump on any incompatible layout change
SCHEDULE_FORMAT = 1


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-simulating a serialized schedule."""

    name: str
    makespan: float
    bubble_ratio: float
    plan_key: str
    stored_makespan: float
    stored_bubble_ratio: float

    @property
    def consistent(self) -> bool:
        """Replay reproduced the stored score bit-for-bit."""
        return (self.makespan == self.stored_makespan
                and self.bubble_ratio == self.stored_bubble_ratio)

    def describe(self) -> str:
        verdict = "consistent" if self.consistent else (
            f"DRIFTED (stored makespan {self.stored_makespan!r}, "
            f"bubble {self.stored_bubble_ratio!r})")
        return (f"replay[{self.name}]: makespan={self.makespan:.3f} "
                f"bubble={self.bubble_ratio:.4f} — {verdict}")


# -- entry codec ----------------------------------------------------------


def _encode_entry(entry: OrderEntry):
    if isinstance(entry, CollectiveOp):
        return {
            "coll": {
                "kind": entry.kind.value,
                "group": list(entry.group),
                "nbytes": entry.nbytes,
                "stage": entry.stage,
                "replica": entry.replica,
                "blocking": entry.blocking,
                "count": entry.count,
            }
        }
    kind, microbatch, stage = entry
    return [kind.value, microbatch, stage]


def _decode_entry(raw) -> OrderEntry:
    if isinstance(raw, dict):
        coll = raw["coll"]
        return CollectiveOp(
            kind=CollectiveKind(coll["kind"]),
            group=tuple(coll["group"]),
            nbytes=float(coll["nbytes"]),
            stage=int(coll["stage"]),
            replica=int(coll["replica"]),
            blocking=bool(coll["blocking"]),
            count=float(coll["count"]),
        )
    kind, microbatch, stage = raw
    return (OpKind(kind), int(microbatch), int(stage))


# -- payload --------------------------------------------------------------


def payload_for(
    result: SearchResult,
    config: PipelineConfig,
    cost: CostConfig,
    *,
    run: RunConfig | None = None,
    resources: StageResources | None = None,
    capacity_bytes: int | None = None,
) -> dict:
    """The JSON-safe replay payload of a search result.

    ``config``/``cost``/``resources``/``capacity_bytes`` must be the
    ones the search ran with — they are what replay rebuilds the base
    program from, and the embedded ``plan_key`` will expose any
    mismatch at load time.
    """
    run = run or RunConfig()
    best = result.best
    if not best.feasible:
        raise SynthesisError(
            f"{result.name}: best candidate is infeasible; nothing to "
            "serialize"
        )
    return {
        "format": SCHEDULE_FORMAT,
        "name": result.name,
        "scheme": config.scheme,
        "num_devices": config.num_devices,
        "num_microbatches": config.num_microbatches,
        "num_waves": config.num_waves,
        "prefetch": run.prefetch,
        "batch_cross_comm": run.batch_cross_comm,
        "cost": {"t_f": cost.t_f, "t_b": cost.t_b, "t_c": cost.t_c},
        "resources": (
            None if resources is None else {
                "weight_bytes": list(resources.weight_bytes),
                "activation_bytes": list(resources.activation_bytes),
                "boundary_bytes": resources.boundary_bytes,
            }
        ),
        "capacity_bytes": capacity_bytes,
        "recompute_frontier": best.ordering.recompute_frontier,
        "plan_key": result.plan_key,
        "makespan": best.makespan,
        "bubble_ratio": best.bubble_ratio,
        "seed": result.config.seed,
        "provenance": [
            {
                "round": step.round,
                "mutation": step.mutation.payload(),
                "makespan": step.makespan,
                "bubble_ratio": step.bubble_ratio,
            }
            for step in best.provenance
        ],
        "orders": {str(device): list(map(_encode_entry, entries))
                   for device, entries in best.ordering.device_entries},
    }


def replay_payload(payload: dict) -> ReplayReport:
    """Rebuild, verify and re-simulate a serialized schedule.

    Raises :class:`SynthesisError` when the payload format is unknown
    or when the recompiled candidate's plan key differs from the stored
    one — the schedule no longer describes the program it claims to
    reorder.  Legality (and capacity, when the payload carries a cap)
    is enforced by the same checker the search used.
    """
    from .search import SynthesisContext

    fmt = payload.get("format")
    if fmt != SCHEDULE_FORMAT:
        raise SynthesisError(
            f"unsupported schedule format {fmt!r} "
            f"(this build reads {SCHEDULE_FORMAT})"
        )
    from ..schedules import build_schedule

    config = PipelineConfig(
        scheme=payload["scheme"],
        num_devices=payload["num_devices"],
        num_microbatches=payload["num_microbatches"],
        num_waves=payload["num_waves"],
    )
    cost = CostConfig(**payload["cost"])
    run = RunConfig(prefetch=payload["prefetch"],
                    batch_cross_comm=payload["batch_cross_comm"])
    raw_res = payload.get("resources")
    resources = None
    if raw_res is not None:
        resources = StageResources(
            weight_bytes=tuple(raw_res["weight_bytes"]),
            activation_bytes=tuple(raw_res["activation_bytes"]),
            boundary_bytes=raw_res["boundary_bytes"],
        )
    schedule = build_schedule(config, cost)
    oracle = AbstractCosts(cost, config.num_devices, schedule.num_stages)
    ctx = SynthesisContext(schedule, oracle, run, resources=resources,
                           capacity_bytes=payload.get("capacity_bytes"))
    ordering = ctx.checker.table.ordering(
        {int(device): list(map(_decode_entry, entries))
         for device, entries in payload["orders"].items()},
        payload.get("recompute_frontier"))

    plan_key = ctx.plan_for(ordering).plan_key
    stored_key = payload.get("plan_key", "")
    if stored_key and plan_key != stored_key:
        raise SynthesisError(
            f"{payload.get('name', '?')}: plan key mismatch — stored "
            f"{stored_key[:12]}…, recompiled {plan_key[:12]}…; the "
            "serialized ordering no longer matches this build's "
            "compiler output"
        )
    scored = ctx.evaluate(ordering)
    if scored is None:
        raise SynthesisError(
            f"{payload.get('name', '?')}: serialized ordering is no "
            "longer legal for this program"
        )
    return ReplayReport(
        name=payload.get("name", "?"),
        makespan=scored.makespan,
        bubble_ratio=scored.bubble_ratio,
        plan_key=plan_key,
        stored_makespan=payload["makespan"],
        stored_bubble_ratio=payload["bubble_ratio"],
    )


def save_schedule(path: str | Path, payload: dict) -> Path:
    """Write a payload as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_schedule(path: str | Path) -> dict:
    """Read a payload back (format checking happens at replay)."""
    return json.loads(Path(path).read_text())
