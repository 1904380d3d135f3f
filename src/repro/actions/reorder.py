"""Recompile a :class:`~repro.actions.program.Program` from an
externally supplied per-device ordering.

The schedule-synthesis searcher (:mod:`repro.synthesis`) explores the
space of per-device *compute orderings* directly — it never goes back
through a :class:`~repro.schedules.base.Schedule`.  This module is the
compile path that makes an ordering executable: given the base program
(which fixes the work set, the dataflow edges and every tensor size)
and, per device, a permutation of that device's **ordering entries** —
compute keys plus asynchronous collectives — it rebuilds the action
lists exactly the way the schedule compiler would have:

1. every compute is preceded by the ``Recv`` of each remote input and
   followed by the ``Send`` of each remote output (derived from
   ``program.deps``, the same facts the original compiler recorded);
2. an asynchronous collective entry binds *before* the pending sends of
   the compute it follows — matching
   :func:`~repro.actions.collectives.with_gradient_sync`'s placement of
   a gradient bucket between a backward and its gradient send;
3. the program's own prefetch-hoisting and batched-P2P passes re-run,
   so a reordered program has the same comm discipline as its base;
4. a trailing ``Flush``/``OptimizerStep`` tail, if the base carries
   one, is re-appended verbatim.

One pin holds it together: for every schedule family (and both
compile-pass settings) ``reorder_program(p, ordering_entries(p))``
reproduces ``p.actions`` action for action, so this path and the
schedule compiler agree.  The synthesis search never rebuilds a
candidate: it scores candidates on legality's topological order
(:mod:`repro.synthesis.timing`) and reorders only the winner, whose
``plan_key`` is lowered from the rebuilt program.

The rebuilt program **shares** ``ops``, ``deps``, ``tensor_bytes``,
``resident``, ``resources`` and ``static_bytes`` with its base: a
reordering changes only the action streams.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import Union

from ..errors import ValidationError
from ..types import OpKind
from .compiler import batch_opposing, hoist_recvs
from .ops import (
    Action,
    CollectiveOp,
    ComputeBackward,
    ComputeForward,
    Flush,
    OptimizerStep,
    Recv,
    Send,
)
from .program import ComputeKey, Program, compute_key

#: One position in an ordering: a compute key ``(kind, microbatch,
#: stage)`` or an asynchronous :class:`CollectiveOp`.
OrderEntry = Union[ComputeKey, CollectiveOp]


def ordering_entries(program: Program) -> dict[int, list[OrderEntry]]:
    """Extract the per-device ordering entries of a compiled program.

    The entries are the *reorderable* skeleton of the action lists:
    compute keys in device order, with asynchronous collectives
    interleaved where they sit.  Comm actions are derived state (they
    follow their compute), and a trailing ``Flush``/``OptimizerStep``
    run is fixed — neither appears as an entry.

    Programs with *blocking* collectives (TP boundary all-reduces) are
    rejected: those are glued to their compute by construction, so
    there is no ordering freedom to extract.
    """
    out: dict[int, list[OrderEntry]] = {}
    for device, acts in program.actions.items():
        entries: list[OrderEntry] = []
        in_tail = False
        for act in acts:
            if isinstance(act, (Flush, OptimizerStep)):
                in_tail = True
                continue
            if in_tail:
                raise ValidationError(
                    f"{program.name}: device {device} has {act} after "
                    "its Flush/OptimizerStep tail"
                )
            key = compute_key(act)
            if key is not None:
                entries.append(key)
            elif isinstance(act, CollectiveOp):
                if act.blocking:
                    raise ValidationError(
                        f"{program.name}: blocking collective {act} is "
                        "glued to its compute; the program is not "
                        "reorderable"
                    )
                entries.append(act)
        out[device] = entries
    return out


def _device_tail(acts: Sequence[Action]) -> tuple[Action, ...]:
    """The trailing Flush/OptimizerStep run of one device list."""
    tail: list[Action] = []
    for act in reversed(acts):
        if isinstance(act, (Flush, OptimizerStep)):
            tail.append(act)
        else:
            break
    return tuple(reversed(tail))


def _sends_by_producer(program: Program) -> dict[ComputeKey, list[Send]]:
    """For each compute, the ``Send`` actions its retirement triggers.

    Derived purely from the dependency edges: every remote dependency of
    a consumer is a wire the producer's device must send on.  Multiple
    consumers of one tensor are kept in a stable (tag, destination)
    order.
    """
    sends: dict[ComputeKey, list[Send]] = {}
    for consumer, deps in program.deps.items():
        dst = program.ops[consumer].device
        for dep in deps:
            if dep.tag is not None:
                sends.setdefault(dep.producer, []).append(
                    Send(peer=dst, tag=dep.tag))
    for outs in sends.values():
        outs.sort(key=lambda s: (s.tag.kind.value, s.tag.microbatch,
                                 s.tag.stage, s.peer))
    return sends


class Reorderer:
    """Recompiler for many orderings of one base program.

    Construction extracts every base-side fact once — ordering entries,
    per-producer sends, per-compute recvs, the compute actions and the
    device tails — so a candidate costs only the rebuild walk plus the
    comm passes.  :func:`reorder_program` is the one-shot wrapper of
    :meth:`reorder`.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.base_entries = ordering_entries(program)
        self._sends_of = _sends_by_producer(program)
        self._recvs_of: dict[ComputeKey, tuple[Recv, ...]] = {}
        self._compute_of: dict[ComputeKey, Action] = {}
        for key, op in program.ops.items():
            self._recvs_of[key] = tuple(
                Recv(peer=dep.src, tag=dep.tag)
                for dep in program.deps.get(key, ())
                if dep.tag is not None
            )
            ctor = (ComputeForward if key[0] is OpKind.FORWARD
                    else ComputeBackward)
            self._compute_of[key] = ctor(op.microbatch, op.stage,
                                         op.chunk)
        self._tails = {
            device: _device_tail(acts)
            for device, acts in program.actions.items()
        }

    def reorder(
        self,
        orders: Mapping[int, Sequence[OrderEntry]],
        name: str | None = None,
    ) -> Program:
        """Rebuild the program's action lists from ``orders``."""
        program = self.program
        self._check_permutation(orders)
        new_actions: dict[int, list[Action]] = {}
        for device in self.base_entries:
            acts: list[Action] = []
            pending: Sequence[Send] = ()
            for entry in orders[device]:
                if isinstance(entry, CollectiveOp):
                    # An async collective binds before the pending
                    # sends of the compute it follows (gradient buckets
                    # post the moment the gradient is final, ahead of
                    # the P2P send).
                    acts.append(entry)
                    continue
                acts.extend(pending)
                acts.extend(self._recvs_of[entry])
                acts.append(self._compute_of[entry])
                pending = self._sends_of.get(entry, ())
            acts.extend(pending)
            if program.prefetch:
                acts = hoist_recvs(acts)
            if program.batch_cross_comm:
                acts = batch_opposing(acts)
            acts.extend(self._tails[device])
            new_actions[device] = acts
        return dataclasses.replace(
            program,
            actions=new_actions,
            name=name if name is not None else program.name,
        )

    def _check_permutation(
        self, orders: Mapping[int, Sequence[OrderEntry]],
    ) -> None:
        program = self.program
        if set(orders) != set(self.base_entries):
            raise ValidationError(
                f"{program.name}: ordering covers devices "
                f"{sorted(orders)}, program has "
                f"{sorted(self.base_entries)}"
            )
        for device, base in self.base_entries.items():
            entries = list(orders[device])
            if sorted(map(repr, entries)) != sorted(map(repr, base)):
                missing = _multiset_diff(base, entries)
                extra = _multiset_diff(entries, base)
                raise ValidationError(
                    f"{program.name}: device {device} ordering is not "
                    f"a permutation of the program's entries"
                    + (f"; missing {missing[:3]}" if missing else "")
                    + (f"; extra {extra[:3]}" if extra else "")
                )


def reorder_program(
    program: Program,
    orders: Mapping[int, Sequence[OrderEntry]],
    name: str | None = None,
) -> Program:
    """Rebuild ``program``'s action lists from per-device orderings.

    ``orders[device]`` must be a permutation of
    ``ordering_entries(program)[device]`` — this function enforces the
    multiset (use :func:`repro.synthesis.check_ordering` beforehand for
    a structured verdict instead of a hard error) but **not** the
    dependency or capacity legality: an illegal permutation compiles
    fine and deadlocks/OOMs at execution, which is exactly what the
    differential fuzz harness exercises.

    The returned program shares every dataflow annotation with the
    base; only ``actions`` (and optionally ``name``) differ.
    """
    return Reorderer(program).reorder(orders, name=name)


def _multiset_diff(a: Sequence[OrderEntry],
                   b: Sequence[OrderEntry]) -> list[str]:
    """Entries of ``a`` not matched in ``b`` (by count), as strings."""
    from collections import Counter

    counts = Counter(map(repr, a))
    counts.subtract(Counter(map(repr, b)))
    return sorted(k for k, n in counts.items() if n > 0)
