"""The candidate representation of the synthesis search.

A :class:`ScheduleOrdering` is an immutable, hashable snapshot of the
one thing the search varies: per device, the order of that device's
**ordering entries** — compute keys ``(kind, microbatch, stage)`` plus
asynchronous :class:`~repro.actions.ops.CollectiveOp`\\ s — along with
an optional activation-recompute frontier.  Everything else (the work
set, dataflow edges, tensor sizes, placement) is fixed by the base
:class:`~repro.actions.program.Program` the ordering was extracted
from; :func:`repro.actions.reorder.reorder_program` turns any ordering
back into an executable program.

Entries are held as int ids of the base program's :class:`EntryTable`
— compute ``i`` is ``program.ops``' ``i``-th key, the lowered plan's
compute index — so mutations, deduplication and legality never touch
an ``OrderEntry``; those exist only at the edges (decoding accessors
and encoding constructors) that serialization, replay and tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ..actions.ops import CollectiveKind, CollectiveOp
from ..actions.program import Program
from ..actions.reorder import OrderEntry, ordering_entries
from ..errors import SynthesisError
from ..types import OpKind


def _fmt_entry(entry: OrderEntry) -> str:
    if isinstance(entry, CollectiveOp):
        return str(entry)
    kind, microbatch, stage = entry
    return f"{kind.value}(m{microbatch},s{stage})"


class EntryTable:
    """One base program's ordering entries, numbered once.

    ``entries[i]`` is id ``i``'s entry (``names[i]`` as printed,
    ``index`` the reverse map): computes ``0 .. n_computes - 1`` in
    ``program.ops`` order, then each distinct collective.  ``base``
    holds each device's own ids and ``waves[(kind, microbatch)]`` the
    ``(device, ids)`` of that wave's computes.  Per id, ``site`` is the
    ``(stage, replica)`` of a backward or a grad-sync (else ``None``),
    ``forward`` / ``stage`` a compute's kind and stage.
    """

    def __init__(self, program: Program) -> None:
        self.name = program.name
        keys = tuple(program.ops)
        self.n_computes = len(keys)
        base = ordering_entries(program)
        colls = list(dict.fromkeys(e for d in sorted(base) for e in base[d]
                                   if isinstance(e, CollectiveOp)))
        self.entries: tuple[OrderEntry, ...] = (*keys, *colls)
        self.index: dict[OrderEntry, int] = {
            e: i for i, e in enumerate(self.entries)}
        self.names: tuple[str, ...] = tuple(map(_fmt_entry, self.entries))
        self.base: dict[int, tuple[int, ...]] = {
            d: self.encode(base[d]) for d in sorted(base)}
        ops = program.ops
        waves: dict[tuple[OpKind, int], dict[int, list[int]]] = {}
        for i, key in enumerate(keys):
            waves.setdefault(key[:2], {}).setdefault(
                ops[key].device, []).append(i)
        self.waves = {
            wave: tuple((d, tuple(on[d])) for d in sorted(on))
            for wave, on in waves.items()}
        self.site: tuple[tuple[int, int] | None, ...] = (
            *((k[2], ops[k].replica) if k[0] is OpKind.BACKWARD else None
              for k in keys),
            *((c.stage, c.replica) if c.kind is CollectiveKind.GRAD_SYNC
              else None for c in colls),
        )
        self.forward: tuple[bool, ...] = (
            *(k[0] is OpKind.FORWARD for k in keys), *(False,) * len(colls))
        self.stage: tuple[int, ...] = tuple(k[2] for k in keys)

    def encode(self, entries: Iterable[OrderEntry]) -> tuple[int, ...]:
        """The ids of ``entries``; a foreign entry raises."""
        index = self.index
        try:
            return tuple(map(index.__getitem__, entries))
        except KeyError as err:
            raise SynthesisError(
                f"{self.name}: {_fmt_entry(err.args[0])} is not an "
                "ordering entry of this program"
            ) from None

    def ordering(self, orders: Mapping[int, Sequence[OrderEntry]],
                 recompute_frontier: int | None = None,
                 ) -> "ScheduleOrdering":
        """Encode per-device entries as an ordering over this table."""
        devices = tuple(sorted(orders))
        return ScheduleOrdering(
            self, devices, tuple(self.encode(orders[d]) for d in devices),
            recompute_frontier)

    def adopt(self, ordering: "ScheduleOrdering") -> "ScheduleOrdering":
        """``ordering``, re-encoded over this table unless it is."""
        if ordering.table is self:
            return ordering
        return self.ordering(ordering.to_orders(),
                             ordering.recompute_frontier)


@dataclass(frozen=True)
class ScheduleOrdering:
    """Per-device entry ids, as an immutable value object.

    ``seqs[k]`` holds the ids (see :class:`EntryTable`) of device
    ``devices[k]``'s entries, in order; ``devices`` ascends.
    ``recompute_frontier`` selects the partial-recompute resource model
    (stages ``>= frontier`` checkpoint; ``None`` keeps the base
    program's resources untouched).  Equality and hash cover the ids
    and the frontier, never the table.
    """

    table: EntryTable = field(compare=False, repr=False)
    devices: tuple[int, ...]
    seqs: tuple[tuple[int, ...], ...]
    recompute_frontier: int | None = None

    @classmethod
    def from_program(cls, program: Program,
                     recompute_frontier: int | None = None,
                     ) -> "ScheduleOrdering":
        """The program's own ordering (the search's identity start)."""
        table = EntryTable(program)
        return cls(table, tuple(table.base), tuple(table.base.values()),
                   recompute_frontier)

    @classmethod
    def from_orders(cls, program: Program,
                    orders: Mapping[int, Sequence[OrderEntry]],
                    recompute_frontier: int | None = None,
                    ) -> "ScheduleOrdering":
        """Encode per-device entries of ``program``'s ordering."""
        return EntryTable(program).ordering(orders, recompute_frontier)

    # -- access ----------------------------------------------------------

    def _slot(self, device: int) -> int:
        try:
            return self.devices.index(device)
        except ValueError:
            raise SynthesisError(f"no device {device} in ordering") from None

    def ids(self, device: int) -> tuple[int, ...]:
        return self.seqs[self._slot(device)]

    def entries(self, device: int) -> tuple[OrderEntry, ...]:
        entries = self.table.entries
        return tuple(map(entries.__getitem__, self.ids(device)))

    @cached_property
    def busy(self) -> tuple[tuple[int, int], ...]:
        """``(device, entry count)`` of each device with 2+ entries."""
        return tuple((d, len(seq)) for d, seq in zip(self.devices, self.seqs)
                     if len(seq) >= 2)

    @property
    def device_entries(self) -> tuple[tuple[int, tuple], ...]:
        """``(device, entries)`` pairs, decoded, by ascending device."""
        return tuple((d, self.entries(d)) for d in self.devices)

    def to_orders(self) -> dict[int, list[OrderEntry]]:
        """The mutable per-device mapping ``reorder_program`` consumes."""
        return {d: list(self.entries(d)) for d in self.devices}

    # -- derivation ------------------------------------------------------

    def with_ids(self, device: int,
                 ids: Iterable[int]) -> "ScheduleOrdering":
        """This ordering with ``device``'s ids replaced."""
        seqs = list(self.seqs)
        seqs[self._slot(device)] = tuple(ids)
        return ScheduleOrdering(self.table, self.devices, tuple(seqs),
                                self.recompute_frontier)

    def replace_entries(self, device: int,
                        entries: Iterable[OrderEntry],
                        ) -> "ScheduleOrdering":
        return self.with_ids(device, self.table.encode(entries))

    def with_frontier(self, frontier: int | None) -> "ScheduleOrdering":
        return ScheduleOrdering(self.table, self.devices, self.seqs,
                                frontier)


def gpipe_like_ordering(program: Program) -> ScheduleOrdering:
    """A GPipe-disciplined start: all forwards, then all backwards.

    Per device, forwards keep their relative order, then backwards keep
    theirs, with collective entries trailing.  This is always legal
    (forward dataflow only references forwards, backward only backwards
    + the own forward, and relative orders within each kind are
    preserved), always memory-hungry (every activation is live at the
    turnaround — the GPipe penalty), and — on a wave placement — the
    canonical *bad* start the searcher is asked to improve into
    Hanayo-like interleaving (see ``docs/synthesis.md``).
    """
    table = EntryTable(program)
    n, forward = table.n_computes, table.forward
    return ScheduleOrdering(table, tuple(table.base), tuple(
        tuple(sorted(seq, key=lambda i: 2 if i >= n else not forward[i]))
        for seq in table.base.values()))
