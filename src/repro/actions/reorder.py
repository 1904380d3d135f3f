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

That function of an ordering has two emissions.
:meth:`Reorderer.reorder` builds the ``Program`` — what replay, the
interpreters and every consumer of action objects need.
:meth:`Reorderer.plan` writes the same walk over integers and returns
the *lowered* plan directly: candidates of one base are permutations
of one program, so only the streams and the send/recv/batch/collective
tables are re-emitted, and the compute table, dependency edges, tags,
slots and byte columns are the base plan's own — which is what lets
the synthesis search lower once, and share resolved cost columns, per
search instead of per candidate.  Two pins hold it together: for every
schedule family (and both compile-pass settings)
``reorder_program(p, ordering_entries(p))`` reproduces ``p.actions``
action for action, so this path and the schedule compiler agree; and
``plan(orders)`` equals ``ExecutablePlan.lower(reorder(orders))`` on
every field, for any permutation, legal or not
(``tests/test_reorder_plan.py``, and per candidate of the synthesis
fuzz walks).

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
from .lowering import (
    NOOP_FLUSH,
    NOOP_STEP,
    OP_BATCH,
    OP_COLL,
    OP_COMPUTE,
    OP_NOOP,
    OP_RECV,
    OP_SEND,
    UNBOUND,
    ExecutablePlan,
)
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


#: plan columns a send / recv row fills, in row order after the opcode
_SEND_COLUMNS = ("send_dst", "send_tag", "send_slot", "send_stage",
                 "send_nbytes", "send_src")
_RECV_COLUMNS = ("recv_peer", "recv_tag", "recv_slot")
#: plan columns indexed by ``lid``, permuted together
_COLL_COLUMNS = ("coll_ops", "coll_device", "coll_blocking", "coll_count",
                 "coll_nsteps", "coll_active", "coll_chunk", "coll_pairs")


class _DecodedActions(Mapping):
    """``program.actions`` of a :meth:`Reorderer.plan` candidate: the
    reordered lists, decoded from the candidate's arrays on first read
    (deadlock reports and ``detail="full"`` results read them; scoring
    never does).  Holds the base plan and the arrays, never the
    candidate plan — a scratch plan must die by refcount.
    """

    __slots__ = ("_base", "_arrays", "_lists")

    def __init__(self, base: ExecutablePlan, arrays: dict) -> None:
        self._base, self._arrays, self._lists = base, arrays, None

    def __getitem__(self, device: int) -> list[Action]:
        if self._lists is None:
            self._lists = dataclasses.replace(
                self._base, **self._arrays).decode()
        return self._lists[device]

    def __iter__(self):
        return iter(self._base.devices)

    def __len__(self) -> int:
        return len(self._base.devices)


class Reorderer:
    """Recompiler for many orderings of one base program.

    Construction extracts every base-side fact once — ordering entries,
    per-producer sends, per-compute recvs, the compute actions and the
    device tails — so a candidate costs only the rebuild walk plus the
    comm passes.  The schedule-synthesis searcher holds one of these
    per structural cell and pushes thousands of candidates through
    :meth:`plan`; :func:`reorder_program` is the one-shot wrapper of
    :meth:`reorder`.  ``plan`` is ``program``'s lowering if the caller
    has one (:meth:`plan` lowers the base on first use otherwise).
    """

    def __init__(self, program: Program,
                 plan: ExecutablePlan | None = None) -> None:
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
        self.base_plan: ExecutablePlan | None = None
        if plan is not None:
            self._intern(plan)

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

    # -- the lowered emission ---------------------------------------------

    def _intern(self, plan: ExecutablePlan) -> None:
        """Pre-intern every entry of the base as integer rows.

        ``_rows_of[key]`` is a compute's ``(recv rows, compute row,
        send rows)``, in ``_recvs_of`` / ``_sends_of`` order.  A row is
        a stream token *and* the table row it will fill: ``(opcode,
        peer, tag id, slot, stage, nbytes, src)`` for a send or recv,
        ``(opcode, arg)`` for a compute, a tail no-op or — ``arg`` the
        base ``lid`` — a collective.

        Tag and slot ids are order-independent only because every
        ``Send``/``Recv`` of a reordered program derives from a
        dependency edge: replaying lowering's dep-phase interning must
        reproduce the base plan's ``tags`` and ``n_slots``, or the base
        carries comm the reorderer would not re-derive.
        """
        program = self.program
        index = {d: i for i, d in enumerate(plan.devices)}
        tag_ids: dict = {}
        slot_ids: dict[tuple[int, int], int] = {}
        for key, di in zip(plan.comp_keys, plan.comp_device):
            for recv in self._recvs_of[key]:
                tid = tag_ids.setdefault(recv.tag, len(tag_ids))
                slot_ids.setdefault((di, tid), len(slot_ids))
        if tuple(tag_ids) != plan.tags or len(slot_ids) != plan.n_slots:
            raise ValidationError(
                f"{program.name}: the plan's tags/slots are not those of "
                "the program's dependency edges; not reorderable")

        def rows(code: int, di: int, acts) -> tuple[tuple, ...]:
            return tuple(
                (code, index[act.peer], tag_ids[act.tag],
                 slot_ids[di if code == OP_RECV else index[act.peer],
                          tag_ids[act.tag]],
                 act.tag.stage, program.tensor_bytes.get(act.tag, 0.0), di)
                for act in acts)

        self._rows_of = {
            key: (rows(OP_RECV, di, self._recvs_of[key]),
                  (OP_COMPUTE, cid),
                  rows(OP_SEND, di, self._sends_of.get(key, ())))
            for cid, (key, di) in enumerate(zip(plan.comp_keys,
                                                plan.comp_device))
        }
        self._coll_row = {
            (di, op): (OP_COLL, lid)
            for lid, (di, op) in enumerate(zip(plan.coll_device,
                                               plan.coll_ops))
        }
        self._tail_rows = [
            tuple((OP_NOOP, NOOP_FLUSH if isinstance(act, Flush)
                   else NOOP_STEP) for act in self._tails[d])
            for d in plan.devices
        ]
        self.base_plan = plan

    def plan(
        self,
        orders: Mapping[int, Sequence[OrderEntry]],
        check: bool = True,
    ) -> ExecutablePlan:
        """``ExecutablePlan.lower(self.reorder(orders))``, without the
        objects: the same walk over pre-interned integer rows.

        Candidates are permutations of one program, so the compute
        table, dependency CSR, tags, slots and resource deltas are the
        base plan's own (shared, never copied); the streams and the
        send/recv/batch/collective tables are re-emitted with every id
        numbered in stream order, as lowering numbers them.  The plan is
        unbound, and its ``program`` is a fresh object (the runtime
        memoizes per program) whose ``actions`` decode on demand.
        """
        if check:
            self._check_permutation(orders)
        if self.base_plan is None:
            self._intern(ExecutablePlan.lower(self.program))
        base = self.base_plan
        rows_of, coll_row = self._rows_of, self._coll_row
        prefetch = self.program.prefetch
        batch = self.program.batch_cross_comm
        sends: list[tuple] = []
        recvs: list[tuple] = []
        colls: list[int] = []
        batch_send_ids: list[tuple[int, ...]] = []
        batch_recv_ids: list[tuple[int, ...]] = []
        batch_exch: list[int] = []
        exchange_ids: dict[frozenset, int] = {}
        codes: list[list[int]] = []
        args: list[list[int]] = []
        for di, device in enumerate(base.devices):
            toks: list[tuple] = []
            pending: tuple[tuple, ...] = ()
            for entry in orders[device]:
                if isinstance(entry, CollectiveOp):
                    toks.append(coll_row[di, entry])
                    continue
                inbound, compute, outbound = rows_of[entry]
                if (prefetch and inbound and not pending and toks
                        and toks[-1][0] == OP_COMPUTE):
                    # hoist_recvs: recvs hop the compute they follow
                    toks[-1:-1] = inbound
                else:
                    toks += pending
                    toks += inbound
                toks.append(compute)
                pending = outbound
            toks += pending
            toks += self._tail_rows[di]
            dev_codes: list[int] = []
            dev_args: list[int] = []
            i, n = 0, len(toks)
            while i < n:
                tok = toks[i]
                i += 1
                code = tok[0]
                if code == OP_COMPUTE or code == OP_NOOP:
                    arg = tok[1]
                elif code == OP_COLL:
                    arg = len(colls)
                    colls.append(tok[1])
                elif (batch and i < n and code + toks[i][0] == 3
                        and tok[1] == toks[i][1]):
                    # batch_opposing: an adjacent Send/Recv pair (their
                    # opcodes sum to 3) with one peer fuses
                    send, recv = ((tok, toks[i]) if code == OP_SEND
                                  else (toks[i], tok))
                    i += 1
                    code, arg = OP_BATCH, len(batch_exch)
                    batch_send_ids.append((len(sends),))
                    batch_recv_ids.append((len(recvs),))
                    sends.append(send)
                    recvs.append(recv)
                    batch_exch.append(exchange_ids.setdefault(
                        frozenset((send[2], recv[2])), len(exchange_ids)))
                elif code == OP_SEND:
                    arg = len(sends)
                    sends.append(tok)
                else:
                    arg = len(recvs)
                    recvs.append(tok)
                dev_codes.append(code)
                dev_args.append(arg)
            codes.append(dev_codes)
            args.append(dev_args)

        arrays = dict(
            codes=tuple(codes), args=tuple(args),
            n_actions=sum(map(len, codes)),
            batch_send_ids=tuple(batch_send_ids),
            batch_recv_ids=tuple(batch_recv_ids), batch_exch=batch_exch,
        )
        for table, names in ((sends, _SEND_COLUMNS), (recvs, _RECV_COLUMNS)):
            for k, name in enumerate(names, 1):
                arrays[name] = [row[k] for row in table]
        if colls:
            for name in _COLL_COLUMNS:
                column = getattr(base, name)
                arrays[name] = type(column)(column[lid] for lid in colls)
        program = dataclasses.replace(
            self.program, actions=_DecodedActions(base, arrays))
        return dataclasses.replace(base, program=program, **arrays,
                                   **UNBOUND)

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
