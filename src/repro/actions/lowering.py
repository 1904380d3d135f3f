"""Lower a :class:`~repro.actions.program.Program` to an
:class:`ExecutablePlan` — the flat, integer-indexed form the hot path
runs on.

The Program IR is the *semantic* truth: per-worker lists of rich action
objects, dict-keyed dependency edges, ``Tag``-addressed tensors.  That
shape is right for compilation, validation and debugging, but wrong for
the event core's inner loop, which previously paid a dict lookup on a
``(device, tag)`` tuple (and an enum hash) for every edge it touched.
This module performs the classic last-mile lowering (the same move
trace analyzers make when they index events into arrays before
analysis): every action, compute, tensor, wire and batched exchange is
**interned to a small integer** once, and the program becomes a set of
parallel arrays —

* per-device action streams: ``codes[d][i]`` (what kind of action) and
  ``args[d][i]`` (an index into that kind's table);
* a compute table with CSR dependency edges (``dep_ptr`` /
  ``dep_remote`` / ``dep_idx``), pre-resolved per-action compute costs,
  and the alloc/free **resource deltas** each compute applies;
* a send table with pre-resolved transfer seconds, link latencies,
  interned transfer slots (the old ``(device, tag)`` dict keys) and
  interned wire ids (the old ``frozenset`` keys of the contention
  model);
* batched-exchange and collective tables mirroring the grouped
  semantics (exchange ids replace the waiver's tag ``frozenset``,
  per-collective ring-step times and NIC/wire ids are precomputed).

Lowering is split in three so sweeps can share work (*shape → sizes →
seconds*, see :mod:`repro.analysis.plans`):

* the **shape** (streams, compute table and CSR edges, slots, send/
  recv/batch tables, collective ring structure) depends only on the
  pipeline, and the **sizes** (``comp_alloc``/``comp_free``,
  ``send_nbytes``, collective descriptors and their ``count``/
  ``active``/``chunk`` columns) only on the model's bytes:
  :meth:`ExecutablePlan.with_sizes` re-binds them for another model's
  program, sharing every shape array.  Together they are what
  :attr:`ExecutablePlan.plan_key` content-hashes, so sharing is
  *checkable*: a size-bound plan and an independently lowered one are
  interchangeable iff their keys are equal (the safety property the
  plan-cache tests pin across models, clusters and capacities);
* the **cost binding** (:meth:`ExecutablePlan.retime`) resolves a
  :class:`~repro.runtime.costs.CostOracle` into flat cost arrays.
  Cost-only sweep axes (a different cluster timing the same program)
  re-bind a cached plan instead of recompiling the schedule.

The plan also **decodes back**: :meth:`ExecutablePlan.decode_actions`
rebuilds the action objects from the arrays alone, and the round-trip
is pinned action-for-action against the source program across every
schedule family — which is how the engine's interpreter can consume the
lowered order while the parity suite keeps its single-IR guarantee.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from ..errors import SchedulingError, ValidationError
from ..types import OpKind, ScheduleOp
from .collectives import ring_pairs, ring_step_count
from .ops import (
    Action,
    BatchedP2P,
    CollectiveOp,
    ComputeBackward,
    ComputeForward,
    Flush,
    OptimizerStep,
    Recv,
    Send,
    Tag,
)
from .program import ComputeKey, Program, compute_key

#: action stream opcodes (``codes[d][i]``)
OP_COMPUTE = 0
OP_SEND = 1
OP_RECV = 2
OP_BATCH = 3
OP_COLL = 4
OP_NOOP = 5

#: ``args`` payload of an ``OP_NOOP``
NOOP_FLUSH = 0
NOOP_STEP = 1

#: field values of a plan with no cost binding and no cached keys: what
#: every derivation that changes structural arrays must reset
UNBOUND = dict(
    costs=None, comp_cost=None, send_time=None, send_lat=None,
    coll_step_time=None, send_wire=None, coll_wires=None, n_wires=0,
    global_ranks=(), _plan_key=None, _congruence_key=None,
)


@dataclass
class ExecutablePlan:
    """A Program lowered to flat integer-indexed arrays.

    Everything the event core touches per action is a list indexed by a
    small integer; the rich objects (``ScheduleOp``, ``Tag``,
    ``CollectiveOp``) survive only in side tables used to materialize
    results after the run.  Instances are produced by :meth:`lower`;
    ``retime`` re-binds the cost columns against a different oracle
    while sharing every structural array.
    """

    program: Program
    #: program-local device ids, in ``program.actions`` iteration order
    #: (device *index* is the id used throughout the arrays)
    devices: tuple[int, ...]
    prefetch: bool

    # -- per-device action streams ---------------------------------------
    codes: tuple[list[int], ...]
    args: tuple[list[int], ...]
    n_actions: int

    # -- compute table (cid) ---------------------------------------------
    comp_ops: tuple[ScheduleOp, ...]
    comp_keys: tuple[ComputeKey, ...]
    comp_device: list[int]
    #: CSR dependency edges, preserving the program's dep order
    dep_ptr: list[int]
    dep_remote: list[int]      # 1 = remote (dep_idx is a slot), 0 = local
    dep_idx: list[int]
    #: resource deltas: bytes pinned at start / released at end
    comp_alloc: list[float]
    comp_free: list[float]

    # -- send table (sid) -------------------------------------------------
    send_src: list[int]
    send_dst: list[int]
    send_tag: list[int]        # index into ``tags``
    send_stage: list[int]
    send_slot: list[int]
    send_nbytes: list[float]

    # -- transfer slots: interned (dst device index, tag) pairs -----------
    n_slots: int

    # -- recv table (rid) -------------------------------------------------
    recv_peer: list[int]
    recv_tag: list[int]
    recv_slot: list[int]

    # -- batched exchanges (bid) ------------------------------------------
    batch_send_ids: tuple[tuple[int, ...], ...]
    batch_recv_ids: tuple[tuple[int, ...], ...]
    batch_exch: list[int]      # interned exchange (tag-set) ids

    # -- collectives (lid) -------------------------------------------------
    coll_ops: tuple[CollectiveOp, ...]
    coll_device: list[int]
    coll_blocking: list[bool]
    coll_count: list[float]
    coll_nsteps: list[int]
    coll_active: list[bool]    # has ring pairs, payload and count > 0
    coll_chunk: list[float]    # nbytes / group size
    #: global-rank ring pairs, for wire interning at bind time
    coll_pairs: tuple[tuple[tuple[int, int], ...], ...]

    # -- interned objects --------------------------------------------------
    tags: tuple[Tag, ...]

    # -- cost binding (None until bound) -----------------------------------
    costs: object | None = None
    comp_cost: list[float] | None = None
    send_time: list[float] | None = None
    send_lat: list[float] | None = None
    coll_step_time: list[float] | None = None
    #: interned contention wires: the old ``frozenset`` global-rank keys
    send_wire: list[int] | None = None
    coll_wires: tuple[tuple[int, ...], ...] | None = None
    n_wires: int = 0
    global_ranks: tuple[int, ...] = ()

    _plan_key: str | None = field(default=None, repr=False)
    _congruence_key: str | None = field(default=None, repr=False)

    # -- shape --------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def n_computes(self) -> int:
        return len(self.comp_ops)

    @property
    def bound(self) -> bool:
        """Whether cost columns are resolved (execution needs them)."""
        return self.comp_cost is not None

    def describe(self) -> str:
        return (f"plan[{self.name}]: devices={len(self.devices)} "
                f"actions={self.n_actions} computes={self.n_computes} "
                f"sends={len(self.send_src)} slots={self.n_slots} "
                f"{'bound' if self.bound else 'unbound'}")

    # -- construction --------------------------------------------------------

    @classmethod
    def lower(cls, program: Program, costs=None) -> "ExecutablePlan":
        """Lower ``program`` to flat arrays; bind ``costs`` if given.

        The structural arrays depend on the program alone; a plan
        lowered without an oracle can be bound later (and repeatedly)
        via :meth:`retime` — that is the sweep-cache contract: one
        structural lowering, many cost bindings.
        """
        shape, colls = _lower_shape(program)
        plan = cls(program=program, **shape, **_size_columns(
            program, colls, shape["comp_keys"], shape["tags"],
            shape["send_tag"], shape["coll_pairs"]))
        if costs is not None:
            plan = plan.retime(costs)
        return plan

    def with_sizes(self, program: Program) -> "ExecutablePlan":
        """The (unbound) plan of ``program``, which must have this
        plan's *shape* — a :meth:`Program.with_sizes` binding of the
        same compiled shape under the same collective transforms.
        Shape arrays are shared, only the byte-bearing columns rebuilt:
        ``lower(program)`` (equal :attr:`plan_key`) at a fraction of
        its cost.
        """
        colls = [act for device in self.devices
                 for act in program.actions[device]
                 if isinstance(act, CollectiveOp)]
        if [ring_pairs(act.group) for act in colls] != list(self.coll_pairs):
            raise ValidationError(
                f"{program.name}: collectives do not match the shape of "
                f"plan[{self.name}]")
        return dataclasses.replace(
            self, program=program,
            **_size_columns(program, colls, self.comp_keys, self.tags,
                            self.send_tag, self.coll_pairs),
            **UNBOUND,
        )

    def retime(self, costs) -> "ExecutablePlan":
        """Bind (or re-bind) the cost columns against ``costs``.

        Returns a new plan sharing every structural array with ``self``
        — only the per-compute durations, per-send transfer seconds and
        latencies, per-collective ring-step times, the global-rank map
        and the wire interning (which lives in global-rank space) are
        recomputed.  This is the cost-only re-timing path sweeps take
        when a cached structure meets a new cluster.

        Every duration is bound here, one oracle call per compute, so
        no execution of the plan ever consults the oracle.  A program
        sends along few distinct ``(src, dst, stage)`` edges but many
        times per edge, so transfers consult it once per edge and fan
        the answer out across the column.
        """
        devices = self.devices
        granks = tuple(costs.global_rank(d) for d in devices)

        comp_cost = [costs.duration(op) for op in self.comp_ops]

        wire_ids: dict[frozenset, int] = {}

        def wire(a: int, b: int) -> int:
            key = frozenset((a, b))
            wid = wire_ids.get(key)
            if wid is None:
                wid = len(wire_ids)
                wire_ids[key] = wid
            return wid

        src, dst, stage = self.send_src, self.send_dst, self.send_stage
        n_send = len(src)
        send_time = [0.0] * n_send
        send_lat = [0.0] * n_send
        send_wire = [0] * n_send
        coll_step_time = [0.0] * len(self.coll_ops)
        edges: dict[tuple[int, int, int], tuple[float, float, int]] = {}
        for sid in range(n_send):
            si, di = src[sid], dst[sid]
            key = (si, di, stage[sid])
            hit = edges.get(key)
            if hit is None:
                s, d = devices[si], devices[di]
                hit = (costs.transfer_time(s, d, stage[sid]),
                       costs.link_latency(s, d),
                       wire(granks[si], granks[di]))
                edges[key] = hit
            send_time[sid] = hit[0]
            send_lat[sid] = hit[1]
            send_wire[sid] = hit[2]

        coll_wires = []
        for lid, pairs in enumerate(self.coll_pairs):
            coll_wires.append(tuple(wire(a, b) for a, b in pairs))
            if self.coll_active[lid]:
                chunk = self.coll_chunk[lid]
                coll_step_time[lid] = max(
                    costs.collective_link_time(a, b, chunk)
                    for a, b in pairs
                )
            else:
                coll_step_time[lid] = 0.0

        return dataclasses.replace(
            self,
            costs=costs,
            comp_cost=comp_cost,
            send_time=send_time,
            send_lat=send_lat,
            send_wire=send_wire,
            coll_step_time=coll_step_time,
            coll_wires=tuple(coll_wires),
            n_wires=len(wire_ids),
            global_ranks=granks,
        )

    # -- identity ------------------------------------------------------------

    @property
    def plan_key(self) -> str:
        """Stable content hash of the structural arrays.

        Two programs lowering to byte-identical structure (action
        streams, dependency edges, payload sizes, resource deltas,
        collective descriptors) share a key — independent of Python
        hash seeds, process boundaries and the cost oracle.  This is
        the verification oracle for plan sharing: the analysis plan
        cache reuses one plan per structural parameter key, and the
        tests pin that independently compiled cells it would share
        (same shape, different cluster/capacity) hash equal here —
        equal keys ⇔ interchangeable plans.
        """
        if self._plan_key is None:
            h = hashlib.sha256()

            def feed(part) -> None:
                h.update(repr(part).encode())
                h.update(b";")

            feed(("devices", self.devices, self.prefetch))
            for di in range(len(self.devices)):
                feed(self.codes[di])
                feed(self.args[di])
            feed([(op.kind.value, op.microbatch, op.stage, op.chunk,
                   op.replica, op.device) for op in self.comp_ops])
            feed((self.dep_ptr, self.dep_remote, self.dep_idx))
            feed((self.comp_alloc, self.comp_free))
            feed([(t.kind.value, t.microbatch, t.stage) for t in self.tags])
            feed((self.send_src, self.send_dst, self.send_tag,
                  self.send_stage, self.send_slot, self.send_nbytes))
            feed((self.recv_peer, self.recv_tag, self.recv_slot))
            feed((self.batch_send_ids, self.batch_recv_ids, self.batch_exch))
            feed([(c.kind.value, c.group, c.nbytes, c.stage, c.replica,
                   c.blocking, c.count) for c in self.coll_ops])
            feed([program_static
                  for program_static in sorted(self.program.static_bytes.items())])
            self._plan_key = h.hexdigest()
        return self._plan_key

    @property
    def congruence_key(self) -> str:
        """Stable content hash of the *control-flow* arrays alone.

        A strict widening of :attr:`plan_key`: it covers exactly the
        arrays the event core's structural pass reads — action streams,
        dependency edges, transfer slots, batched-exchange membership,
        collective step structure and kinds — and deliberately
        **excludes** every cost-bearing array (payload bytes, resource
        deltas, tags, static residency, the rich op descriptors).  Two
        plans with equal keys share *one* structural pass
        (:func:`~repro.runtime.events.lockstep_schedule`) and execute
        its event sequence under the uncontended driver, whatever their
        cost columns resolve to; they are the "congruence classes" the
        batched runtime stacks into one
        :class:`~repro.runtime.batched.PlanBatch` — e.g. the same
        family/P/B/prefetch with recompute toggled, different models or
        micro-batch sizes, or collective bucket sizes that only retime.

        Equal ``plan_key`` ⇒ equal ``congruence_key``; never the
        converse.
        """
        if self._congruence_key is None:
            h = hashlib.sha256()

            def feed(part) -> None:
                h.update(repr(part).encode())
                h.update(b";")

            feed(("devices", self.devices, self.prefetch, self.n_slots))
            for di in range(len(self.devices)):
                feed(self.codes[di])
                feed(self.args[di])
            feed(self.comp_device)
            feed((self.dep_ptr, self.dep_remote, self.dep_idx))
            feed((self.send_src, self.send_dst, self.send_slot))
            feed(self.recv_slot)
            feed((self.batch_send_ids, self.batch_recv_ids,
                  self.batch_exch))
            feed((self.coll_device, self.coll_blocking, self.coll_count,
                  self.coll_nsteps, self.coll_active))
            # the lane fold sums gradient rings by the structure's table
            feed([c.kind.value for c in self.coll_ops])
            self._congruence_key = h.hexdigest()
        return self._congruence_key

    # -- decoding ------------------------------------------------------------

    def decode_actions(self, device: int) -> list[Action]:
        """Rebuild ``device``'s action list from the arrays alone.

        The inverse of lowering (collectives, which carry no hot-path
        state, are kept as interned objects).  Pinned equal to
        ``program.actions[device]`` by the round-trip tests; the engine
        trainer feeds exactly this to its interpreters, so the order the
        NumPy workers execute *is* the lowered order.
        """
        try:
            di = self.devices.index(device)
        except ValueError:
            raise SchedulingError(
                f"{self.name}: no device {device} in plan"
            ) from None
        tags = self.tags
        out: list[Action] = []
        for code, a in zip(self.codes[di], self.args[di]):
            if code == OP_COMPUTE:
                op = self.comp_ops[a]
                ctor = (ComputeForward if op.kind is OpKind.FORWARD
                        else ComputeBackward)
                out.append(ctor(op.microbatch, op.stage, op.chunk))
            elif code == OP_SEND:
                out.append(self._decode_send(a))
            elif code == OP_RECV:
                out.append(self._decode_recv(a))
            elif code == OP_BATCH:
                out.append(BatchedP2P(
                    sends=tuple(self._decode_send(s)
                                for s in self.batch_send_ids[a]),
                    recvs=tuple(self._decode_recv(r)
                                for r in self.batch_recv_ids[a]),
                ))
            elif code == OP_COLL:
                out.append(self.coll_ops[a])
            elif code == OP_NOOP:
                out.append(Flush() if a == NOOP_FLUSH else OptimizerStep())
            else:  # pragma: no cover - lowering emits only known codes
                raise SchedulingError(f"{self.name}: unknown opcode {code}")
        return out

    def decode(self) -> dict[int, list[Action]]:
        """All device lists, decoded (a full Program round-trip)."""
        return {d: self.decode_actions(d) for d in self.devices}

    def _decode_send(self, sid: int) -> Send:
        return Send(peer=self.devices[self.send_dst[sid]],
                    tag=self.tags[self.send_tag[sid]])

    def _decode_recv(self, rid: int) -> Recv:
        return Recv(peer=self.devices[self.recv_peer[rid]],
                    tag=self.tags[self.recv_tag[rid]])


def _size_columns(program: Program, colls, comp_keys, tags, send_tag,
                  coll_pairs) -> dict:
    """The byte-bearing columns of ``program`` — whose collectives, in
    lowering order, are ``colls`` — over a lowered shape."""
    nbytes = program.tensor_bytes
    return dict(
        comp_alloc=[program.alloc_bytes(key) for key in comp_keys],
        comp_free=[program.free_bytes(key) for key in comp_keys],
        send_nbytes=[nbytes.get(tags[tid], 0.0) for tid in send_tag],
        coll_ops=tuple(colls),
        coll_count=[float(act.count) for act in colls],
        coll_active=[bool(pairs) and act.nbytes > 0 and act.count > 0
                     for act, pairs in zip(colls, coll_pairs)],
        coll_chunk=[act.nbytes / len(act.group) if act.group else 0.0
                    for act in colls],
    )


def _lower_shape(program: Program) -> tuple[dict, list[CollectiveOp]]:
    """One pass over the program building every shape array; also
    returns the collectives met, in ``lid`` order."""
    devices = tuple(program.actions)
    dev_index = {d: i for i, d in enumerate(devices)}

    tags: list[Tag] = []
    tag_ids: dict[Tag, int] = {}

    def intern_tag(tag: Tag) -> int:
        tid = tag_ids.get(tag)
        if tid is None:
            tid = len(tags)
            tag_ids[tag] = tid
            tags.append(tag)
        return tid

    slot_ids: dict[tuple[int, int], int] = {}

    def intern_slot(di: int, tid: int) -> int:
        sid = slot_ids.get((di, tid))
        if sid is None:
            sid = len(slot_ids)
            slot_ids[(di, tid)] = sid
        return sid

    # compute table, in program.ops (= schedule walk) order
    comp_ids: dict[ComputeKey, int] = {}
    comp_ops: list[ScheduleOp] = []
    comp_keys: list[ComputeKey] = []
    comp_device: list[int] = []
    for key, op in program.ops.items():
        comp_ids[key] = len(comp_ops)
        comp_ops.append(op)
        comp_keys.append(key)
        comp_device.append(dev_index[op.device])

    dep_ptr = [0]
    dep_remote: list[int] = []
    dep_idx: list[int] = []
    for cid, key in enumerate(comp_keys):
        consumer_di = comp_device[cid]
        for dep in program.deps.get(key, ()):
            if dep.tag is None:
                dep_remote.append(0)
                dep_idx.append(comp_ids[dep.producer])
            else:
                dep_remote.append(1)
                dep_idx.append(intern_slot(consumer_di,
                                           intern_tag(dep.tag)))
        dep_ptr.append(len(dep_idx))

    send_src: list[int] = []
    send_dst: list[int] = []
    send_tag: list[int] = []
    send_stage: list[int] = []
    send_slot: list[int] = []

    def intern_send(di: int, send: Send) -> int:
        sid = len(send_src)
        tid = intern_tag(send.tag)
        dst = dev_index[send.peer]
        send_src.append(di)
        send_dst.append(dst)
        send_tag.append(tid)
        send_stage.append(send.tag.stage)
        send_slot.append(intern_slot(dst, tid))
        return sid

    recv_peer: list[int] = []
    recv_tag: list[int] = []
    recv_slot: list[int] = []

    def intern_recv(di: int, recv: Recv) -> int:
        rid = len(recv_peer)
        tid = intern_tag(recv.tag)
        recv_peer.append(dev_index[recv.peer])
        recv_tag.append(tid)
        recv_slot.append(intern_slot(di, tid))
        return rid

    batch_send_ids: list[tuple[int, ...]] = []
    batch_recv_ids: list[tuple[int, ...]] = []
    batch_exch: list[int] = []
    exchange_ids: dict[frozenset, int] = {}

    colls: list[CollectiveOp] = []
    coll_device: list[int] = []
    coll_blocking: list[bool] = []
    coll_nsteps: list[int] = []
    coll_pairs: list[tuple[tuple[int, int], ...]] = []

    codes: list[list[int]] = []
    args: list[list[int]] = []
    n_actions = 0
    for di, device in enumerate(devices):
        dev_codes: list[int] = []
        dev_args: list[int] = []
        for act in program.actions[device]:
            key = compute_key(act)
            if key is not None:
                try:
                    cid = comp_ids[key]
                except KeyError:
                    raise ValidationError(
                        f"{program.name}: action {act} has no compute "
                        "metadata in program.ops"
                    ) from None
                dev_codes.append(OP_COMPUTE)
                dev_args.append(cid)
            elif isinstance(act, Send):
                dev_codes.append(OP_SEND)
                dev_args.append(intern_send(di, act))
            elif isinstance(act, Recv):
                dev_codes.append(OP_RECV)
                dev_args.append(intern_recv(di, act))
            elif isinstance(act, BatchedP2P):
                bid = len(batch_send_ids)
                batch_send_ids.append(tuple(intern_send(di, s)
                                            for s in act.sends))
                batch_recv_ids.append(tuple(intern_recv(di, r)
                                            for r in act.recvs))
                exchange = frozenset(
                    [s.tag for s in act.sends] + [r.tag for r in act.recvs]
                )
                eid = exchange_ids.get(exchange)
                if eid is None:
                    eid = len(exchange_ids)
                    exchange_ids[exchange] = eid
                batch_exch.append(eid)
                dev_codes.append(OP_BATCH)
                dev_args.append(bid)
            elif isinstance(act, CollectiveOp):
                dev_codes.append(OP_COLL)
                dev_args.append(len(colls))
                colls.append(act)
                coll_device.append(di)
                coll_blocking.append(act.blocking)
                coll_nsteps.append(ring_step_count(len(act.group)))
                coll_pairs.append(ring_pairs(act.group))
            elif isinstance(act, Flush):
                dev_codes.append(OP_NOOP)
                dev_args.append(NOOP_FLUSH)
            elif isinstance(act, OptimizerStep):
                dev_codes.append(OP_NOOP)
                dev_args.append(NOOP_STEP)
            else:
                raise SchedulingError(
                    f"{program.name}: unknown action {act!r} in program"
                )
        codes.append(dev_codes)
        args.append(dev_args)
        n_actions += len(dev_codes)

    return dict(
        devices=devices,
        prefetch=program.prefetch,
        codes=tuple(codes),
        args=tuple(args),
        n_actions=n_actions,
        comp_ops=tuple(comp_ops),
        comp_keys=tuple(comp_keys),
        comp_device=comp_device,
        dep_ptr=dep_ptr,
        dep_remote=dep_remote,
        dep_idx=dep_idx,
        send_src=send_src,
        send_dst=send_dst,
        send_tag=send_tag,
        send_stage=send_stage,
        send_slot=send_slot,
        n_slots=len(slot_ids),
        recv_peer=recv_peer,
        recv_tag=recv_tag,
        recv_slot=recv_slot,
        batch_send_ids=tuple(batch_send_ids),
        batch_recv_ids=tuple(batch_recv_ids),
        batch_exch=batch_exch,
        coll_device=coll_device,
        coll_blocking=coll_blocking,
        coll_nsteps=coll_nsteps,
        coll_pairs=tuple(coll_pairs),
        tags=tuple(tags),
    ), colls
