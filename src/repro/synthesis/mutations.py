"""Invertible local mutation operators over schedule orderings.

Each operator is a small frozen dataclass with three duties:

* ``apply(ordering)`` — produce the mutated :class:`ScheduleOrdering`,
  raising :class:`~repro.errors.SynthesisError` when the operator is
  inapplicable (out-of-range index, no matching entry); the sampler
  and searcher treat that as "draw again", never as a crash;
* ``inverse()`` — the operator that undoes it.  The property suite
  pins ``m.inverse().apply(m.apply(o)) == o`` (and plan-key equality of
  the recompiled programs), which is what makes search trajectories
  replayable backwards and the provenance log trustworthy;
* ``payload()`` / :func:`mutation_from_payload` — a JSON-safe
  round-trip so serialized schedules can carry their mutation history.

Operators move entry ids (indices count every entry of a device,
collectives included); a mutated ordering shares each unchanged
device's id tuple with its parent, so legality's repair skips it.

Operators are deliberately *mechanical*: an applied mutation may well
be illegal (that is :func:`~repro.synthesis.legality.check_ordering`'s
verdict to give), and the differential fuzz harness relies on exactly
that to generate deadlocking/OOMing candidates.

:func:`propose_mutation` is the seeded sampler the searcher draws
from: given a ``random.Random`` it picks an operator family and
parameters, retrying internally until something applies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import ClassVar, Sequence

from ..actions.program import Program
from ..errors import SynthesisError
from ..types import OpKind
from .ordering import ScheduleOrdering

SWAP_ADJACENT = "swap-adjacent"
SHIFT_ENTRY = "shift-entry"
SHIFT_MICROBATCH = "shift-microbatch"
REORDER_COLLECTIVE = "reorder-collective"
MOVE_RECOMPUTE = "move-recompute"


@dataclass(frozen=True)
class Mutation:
    """Base operator; concrete mutations below."""

    kind: ClassVar[str] = ""

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        raise NotImplementedError

    def inverse(self) -> "Mutation":
        raise NotImplementedError

    def payload(self) -> dict:
        """JSON-safe encoding; see :func:`mutation_from_payload`."""
        out: dict = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, OpKind) else value
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "Mutation":
        kwargs = {k: v for k, v in payload.items() if k != "kind"}
        return cls(**kwargs)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.payload().items()
                          if k != "kind")
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class SwapAdjacent(Mutation):
    """Exchange a device's entries at ``index`` and ``index + 1``.

    The smallest step in the space — and its own inverse.
    """

    device: int
    index: int

    kind: ClassVar[str] = SWAP_ADJACENT

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        ids = ordering.ids(self.device)
        i = self.index
        if not 0 <= i < len(ids) - 1:
            raise SynthesisError(
                f"swap index {i} out of range on device "
                f"{self.device} ({len(ids)} entries)"
            )
        return ordering.with_ids(
            self.device, ids[:i] + (ids[i + 1], ids[i]) + ids[i + 2:])

    def inverse(self) -> "SwapAdjacent":
        return self


@dataclass(frozen=True)
class ShiftEntry(Mutation):
    """Move one entry of a device by ``delta`` positions."""

    device: int
    index: int
    delta: int

    kind: ClassVar[str] = SHIFT_ENTRY

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        ids = list(ordering.ids(self.device))
        j = self.index + self.delta
        if self.delta == 0 or not 0 <= self.index < len(ids) \
                or not 0 <= j < len(ids):
            raise SynthesisError(
                f"shift {self.index} -> {j} out of range on device "
                f"{self.device} ({len(ids)} entries)"
            )
        ids.insert(j, ids.pop(self.index))
        return ordering.with_ids(self.device, ids)

    def inverse(self) -> "ShiftEntry":
        return ShiftEntry(device=self.device, index=self.index + self.delta,
                          delta=-self.delta)


@dataclass(frozen=True)
class ShiftMicrobatch(Mutation):
    """Shift every compute of one ``(kind, microbatch)`` wave by ``delta``.

    This is the wave-structure operator: on each device holding such
    computes, each one moves ``delta`` slots (right-to-left for
    positive deltas, left-to-right for negative, so earlier moves never
    disturb the indices of later ones — which is also what makes the
    operator invert exactly).  Each compute is looked up on the device
    the program places it on; an ordering lacking one there raises.
    """

    microbatch: int
    op_kind: OpKind
    delta: int

    kind: ClassVar[str] = SHIFT_MICROBATCH

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        if self.delta == 0:
            raise SynthesisError("microbatch shift with delta 0")
        wave = ordering.table.waves.get((self.op_kind, self.microbatch))
        if wave is None:
            raise SynthesisError(
                f"no {self.op_kind.value} computes of microbatch "
                f"{self.microbatch} in ordering"
            )
        delta = self.delta
        seqs = list(ordering.seqs)
        for device, ids in wave:
            try:
                k = ordering.devices.index(device)
                matches = sorted(map(seqs[k].index, ids))
            except ValueError:
                raise SynthesisError(
                    f"device {device} lacks a compute of its "
                    f"{self.op_kind.value} wave {self.microbatch}"
                ) from None
            moved = list(seqs[k])
            for i in reversed(matches) if delta > 0 else matches:
                if not 0 <= i + delta < len(moved):
                    raise SynthesisError(
                        f"microbatch shift {i} -> {i + delta} out of "
                        f"range on device {device} ({len(moved)} entries)"
                    )
                moved.insert(i + delta, moved.pop(i))
            seqs[k] = tuple(moved)
        return ScheduleOrdering(ordering.table, ordering.devices,
                                tuple(seqs), ordering.recompute_frontier)

    def inverse(self) -> "ShiftMicrobatch":
        return ShiftMicrobatch(microbatch=self.microbatch,
                               op_kind=self.op_kind, delta=-self.delta)

    @classmethod
    def from_payload(cls, payload: dict) -> "ShiftMicrobatch":
        return cls(microbatch=payload["microbatch"],
                   op_kind=OpKind(payload["op_kind"]),
                   delta=payload["delta"])


@dataclass(frozen=True)
class ReorderCollective(Mutation):
    """Move a gradient-sync bucket by ``delta`` slots on its device.

    The bucket is addressed by ``(stage, replica)`` — unique per device
    by construction of
    :func:`~repro.actions.collectives.with_gradient_sync` — so the
    inverse can re-locate it after the move.
    """

    device: int
    stage: int
    replica: int
    delta: int

    kind: ClassVar[str] = REORDER_COLLECTIVE

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        if self.delta == 0:
            raise SynthesisError("collective reorder with delta 0")
        ids = list(ordering.ids(self.device))
        n, site = ordering.table.n_computes, ordering.table.site
        idxs = [i for i, e in enumerate(ids)
                if e >= n and site[e] == (self.stage, self.replica)]
        if len(idxs) != 1:
            raise SynthesisError(
                f"device {self.device} has {len(idxs)} grad-sync "
                f"collectives for stage {self.stage} replica "
                f"{self.replica}; need exactly one"
            )
        i = idxs[0]
        j = i + self.delta
        if not 0 <= j < len(ids):
            raise SynthesisError(
                f"collective move {i} -> {j} out of range on device "
                f"{self.device} ({len(ids)} entries)"
            )
        ids.insert(j, ids.pop(i))
        return ordering.with_ids(self.device, ids)

    def inverse(self) -> "ReorderCollective":
        return ReorderCollective(device=self.device, stage=self.stage,
                                 replica=self.replica, delta=-self.delta)


@dataclass(frozen=True)
class MoveRecomputeBoundary(Mutation):
    """Move the partial-recompute frontier from ``src`` to ``dst``.

    Only the resource/cost model changes — the ordering's entries stay
    put — so this operator trades activation memory against recompute
    time (stages ``>= frontier`` checkpoint; see
    :meth:`~repro.actions.resources.StageResources.with_recompute_from`).
    """

    src: int
    dst: int

    kind: ClassVar[str] = MOVE_RECOMPUTE

    def apply(self, ordering: ScheduleOrdering) -> ScheduleOrdering:
        if self.src == self.dst:
            raise SynthesisError("recompute move with src == dst")
        if ordering.recompute_frontier != self.src:
            raise SynthesisError(
                f"ordering's recompute frontier is "
                f"{ordering.recompute_frontier}, mutation expects "
                f"{self.src}"
            )
        return ordering.with_frontier(self.dst)

    def inverse(self) -> "MoveRecomputeBoundary":
        return MoveRecomputeBoundary(src=self.dst, dst=self.src)


MUTATION_KINDS: dict[str, type[Mutation]] = {
    cls.kind: cls
    for cls in (SwapAdjacent, ShiftEntry, ShiftMicrobatch,
                ReorderCollective, MoveRecomputeBoundary)
}


def mutation_from_payload(payload: dict) -> Mutation:
    """Rebuild an operator from its :meth:`Mutation.payload` dict."""
    try:
        cls = MUTATION_KINDS[payload["kind"]]
    except KeyError:
        raise SynthesisError(
            f"unknown mutation kind {payload.get('kind')!r}"
        ) from None
    return cls.from_payload(payload)


# -- seeded sampling ------------------------------------------------------


def _signed_delta(rng: Random, max_shift: int) -> int:
    delta = rng.randrange(1, max_shift + 1)
    return delta if rng.random() < 0.5 else -delta


def _grad_sync_sites(
    ordering: ScheduleOrdering,
) -> list[tuple[int, int, int]]:
    """``(device, stage, replica)`` of each grad-sync, by position."""
    n, site = ordering.table.n_computes, ordering.table.site
    return [(device, *site[e])
            for device, seq in zip(ordering.devices, ordering.seqs)
            for e in seq if e >= n and site[e] is not None]


def default_operators(program: Program,
                      ordering: ScheduleOrdering) -> list[str]:
    """The operator families applicable to this program/ordering."""
    kinds = [SWAP_ADJACENT, SHIFT_ENTRY, SHIFT_MICROBATCH]
    if _grad_sync_sites(ordering):
        kinds.append(REORDER_COLLECTIVE)
    if (ordering.recompute_frontier is not None
            and program.resources is not None):
        kinds.append(MOVE_RECOMPUTE)
    return kinds


def propose_mutation(
    rng: Random,
    program: Program,
    ordering: ScheduleOrdering,
    *,
    operators: Sequence[str] | None = None,
    max_shift: int = 4,
) -> tuple[Mutation, ScheduleOrdering]:
    """Draw one applicable mutation and its result, deterministically.

    Samples an operator family and parameters from ``rng``, retrying
    internally (inapplicable draws are common near list edges) and
    raising :class:`SynthesisError` only if nothing applies after many
    attempts — which for any non-degenerate program means the operator
    list was empty or the ordering has fewer than two entries
    everywhere.
    """
    kinds = (operators if operators is not None
             else default_operators(program, ordering))
    if not kinds:
        raise SynthesisError("no mutation operators to sample from")
    for _ in range(64):
        try:
            mutation = _sample(rng.choice(kinds), rng, program, ordering,
                               max_shift)
            return mutation, mutation.apply(ordering)
        except SynthesisError:
            continue
    raise SynthesisError(
        f"no applicable mutation among {kinds} after 64 draws"
    )


def _sample(kind: str, rng: Random, program: Program,
            ordering: ScheduleOrdering, max_shift: int) -> Mutation:
    if kind in (SWAP_ADJACENT, SHIFT_ENTRY):
        busy = ordering.busy
        if not busy:
            raise SynthesisError("every device has fewer than 2 entries")
        device, size = rng.choice(busy)
        if kind == SWAP_ADJACENT:
            return SwapAdjacent(device, rng.randrange(size - 1))
        return ShiftEntry(device, rng.randrange(size),
                          _signed_delta(rng, max_shift))
    if kind == SHIFT_MICROBATCH:
        return ShiftMicrobatch(
            rng.randrange(program.num_microbatches),
            OpKind.FORWARD if rng.random() < 0.5 else OpKind.BACKWARD,
            _signed_delta(rng, max_shift))
    if kind == REORDER_COLLECTIVE:
        sites = _grad_sync_sites(ordering)
        if not sites:
            raise SynthesisError("no gradient-sync collectives to move")
        device, stage, replica = rng.choice(sites)
        return ReorderCollective(device=device, stage=stage,
                                 replica=replica,
                                 delta=_signed_delta(rng, max_shift))
    if kind == MOVE_RECOMPUTE:
        src = ordering.recompute_frontier
        if src is None:
            raise SynthesisError("ordering carries no recompute frontier")
        dst = rng.randrange(program.num_stages + 1)
        return MoveRecomputeBoundary(src=src, dst=dst)
    raise SynthesisError(f"unknown mutation kind {kind!r}")
