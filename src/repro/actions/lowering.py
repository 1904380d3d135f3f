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
  ``dep_remote`` / ``dep_idx``), each compute's (stage, direction)
  cell, pre-resolved compute costs, and the alloc/free **resource
  deltas** each compute applies;
* a send table with interned transfer slots (the old ``(device, tag)``
  dict keys) and each send's distinct ``(src, dst)`` edge, from which
  its transfer seconds, link latency and interned wire id (the old
  ``frozenset`` keys of the contention model) are fanned out;
* batched-exchange and collective tables mirroring the grouped
  semantics (exchange ids replace the waiver's tag ``frozenset``,
  per-collective ring-step times and NIC/wire ids are precomputed).

Lowering is split in three so sweeps can share work (*shape → sizes →
seconds*, see :mod:`repro.analysis.plans`):

* the **shape** (streams, compute table and CSR edges, slots, send/
  recv/batch/edge tables, collective ring structure, hashed once into
  ``shape_digest``) depends only on the pipeline, and the **sizes**
  (``comp_alloc``/``comp_free``, ``send_nbytes``, collective
  descriptors and their ``count``/``active``/``chunk`` columns) only
  on the model's bytes: :meth:`ExecutablePlan.with_sizes` re-binds
  them for another model's program, sharing every shape array.
  Together they are what :attr:`ExecutablePlan.plan_key`
  content-hashes, so sharing is *checkable*: a size-bound plan and an
  independently lowered one are interchangeable iff their keys are
  equal (the safety property the plan-cache tests pin across models,
  clusters and capacities);
* the **cost binding** (:meth:`ExecutablePlan.retime`) gathers cost
  oracles' tables (:class:`~repro.runtime.costs.CostOracle`) into flat
  cost arrays — stage tables per compute, one link per distinct edge,
  one ring step per distinct ring — for all lanes of a size binding in
  one call.  Cost-only sweep axes (a different cluster timing the same
  program) re-bind a cached plan instead of recompiling the schedule.

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
from operator import itemgetter

from ..errors import ConfigError, SchedulingError, ValidationError
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

#: field values of a plan with no cost binding and no cached plan key:
#: what every derivation that changes size columns must reset
UNBOUND = dict(
    costs=None, comp_cost=None, send_time=None, send_lat=None,
    coll_step_time=None, send_wire=None, coll_wires=None, n_wires=0,
    global_ranks=(), _plan_key=None,
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
    #: ``2 * stage + (0 forward | 1 backward)``: the compute's cell of
    #: the interleaved per-stage duration tables
    comp_cell: list[int]
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
    send_edge: list[int]       # index into ``edges``
    send_nbytes: list[float]
    #: distinct ``(src, dst)`` send links, in first-send order
    edges: tuple[tuple[int, int], ...]

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
    #: content hash of every control-flow shape array: the size-blind
    #: part of :attr:`congruence_key`, shared by all size bindings
    shape_digest: str = field(repr=False)

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
        plan = cls(program=program, **shape,
                   **_size_columns(program, colls, shape))
        if costs is not None:
            plan = plan.retime(costs)
        return plan

    def with_sizes(self, program: Program) -> "ExecutablePlan":
        """The (unbound) plan of ``program``, which must have this
        plan's *shape* — a :meth:`Program.with_sizes` binding of the
        same compiled shape under the same collective transforms.
        Shape arrays are shared, only the byte-bearing columns (and
        the :attr:`congruence_key`) rebuilt: ``lower(program)`` (equal
        :attr:`plan_key`) at a fraction of its cost.
        """
        colls = [act for device in self.devices
                 for act in program.actions[device]
                 if isinstance(act, CollectiveOp)]
        if [ring_pairs(act.group) for act in colls] != list(self.coll_pairs):
            raise ValidationError(
                f"{program.name}: collectives do not match the shape of "
                f"plan[{self.name}]")
        return dataclasses.replace(
            self, program=program, **_size_columns(program, colls, vars(self)),
            **UNBOUND)

    def retime(self, costs):
        """Bind (or re-bind) the cost columns against ``costs``: one
        oracle gives one bound plan, a sequence of oracles a list of
        them, in order, from one pass over the structure.

        A bound plan shares every structural array (and the cached
        keys) with ``self`` — only the per-compute durations, per-send
        transfer seconds and latencies, per-collective ring-step times,
        the global-rank map and the wire interning (which lives in
        global-rank space) are recomputed.  This is the cost-only
        re-timing path sweeps take when a cached structure meets new
        clusters.

        Every duration is bound here, so no execution of the plan ever
        consults the oracle, and each is a gather over the oracle's
        tables (:mod:`repro.runtime.costs`): the duration column over
        its per-stage tables (a stage past their end raises
        :class:`~repro.errors.ConfigError`), transfers and latencies
        over one :meth:`~repro.runtime.costs.CostOracle.link` per
        distinct ``(src, dst)`` edge (a self edge is ``(0, 0)``), ring
        steps over one answer per distinct ``(ring pairs, chunk)``, and
        wires over one interning per rank map.
        """
        one = hasattr(costs, "global_rank")  # an oracle, not a sequence
        comp_of = _gather(self.comp_cell)
        send_of = _gather(self.send_edge)
        # inactive collectives take the trailing 0.0 cell
        rings: dict[tuple, int] = {}
        ring_of = _gather([
            rings.setdefault((pairs, chunk), len(rings)) if active else -1
            for pairs, chunk, active in zip(self.coll_pairs, self.coll_chunk,
                                            self.coll_active)])
        bound, wires = [], {}
        for oracle in [costs] if one else costs:
            granks = tuple(map(oracle.global_rank, self.devices))
            if granks not in wires:
                wires[granks] = self._wires(granks)
            cells = [t for pair in zip(*oracle.stage_durations())
                     for t in pair]
            try:
                comp_cost = comp_of(cells)
            except IndexError:
                raise self._outside(len(cells) // 2) from None
            links = [(0.0, 0.0) if a == b else oracle.link(a, b)
                     for a, b in ((granks[s], granks[d])
                                  for s, d in self.edges)]
            steps = [max(oracle.collective_link_time(a, b, chunk)
                         for a, b in pairs) for pairs, chunk in rings]
            bound.append(dataclasses.replace(
                self,
                costs=oracle,
                comp_cost=comp_cost,
                send_time=send_of([t for t, _ in links]),
                send_lat=send_of([lat for _, lat in links]),
                coll_step_time=ring_of(steps + [0.0]),
                global_ranks=granks,
                **wires[granks],
            ))
        return bound[0] if one else bound

    def _outside(self, stages: int) -> ConfigError:
        """The error of a cost table of ``stages`` stages too short for
        this plan, naming its first compute past the end."""
        op = next(op for op in self.comp_ops if op.stage >= stages)
        return ConfigError(
            f"op stage {op.stage} outside cost table of {stages}")

    def _wires(self, granks: tuple[int, ...]) -> dict:
        """The wire columns under the rank map ``granks``, interned in
        global-rank space, edges (first-send order) before rings."""
        wire_ids: dict[frozenset, int] = {}

        def wire(a: int, b: int) -> int:
            return wire_ids.setdefault(frozenset((a, b)), len(wire_ids))

        send_wire = _gather(self.send_edge)(
            [wire(granks[s], granks[d]) for s, d in self.edges])
        coll_wires = tuple(tuple(wire(a, b) for a, b in ring)
                           for ring in self.coll_pairs)
        return dict(send_wire=send_wire, coll_wires=coll_wires,
                    n_wires=len(wire_ids))

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
            self._plan_key = _digest(
                ("devices", self.devices, self.prefetch),
                *_streams(self.codes, self.args),
                [(op.kind.value, op.microbatch, op.stage, op.chunk,
                  op.replica, op.device) for op in self.comp_ops],
                (self.dep_ptr, self.dep_remote, self.dep_idx),
                (self.comp_alloc, self.comp_free),
                [(t.kind.value, t.microbatch, t.stage) for t in self.tags],
                (self.send_src, self.send_dst, self.send_tag,
                 self.send_stage, self.send_slot, self.send_nbytes),
                (self.recv_peer, self.recv_tag, self.recv_slot),
                (self.batch_send_ids, self.batch_recv_ids, self.batch_exch),
                [(c.kind.value, c.group, c.nbytes, c.stage, c.replica,
                  c.blocking, c.count) for c in self.coll_ops],
                sorted(self.program.static_bytes.items()),
            )
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

        It is the :attr:`shape_digest` combined with the three
        size-bound columns the structural pass also reads — collective
        counts, activity and kinds — so a size binding fills it at the
        cost of hashing those alone, and every re-timed copy inherits
        it.  Equal ``plan_key`` ⇒ equal ``congruence_key``; never the
        converse.
        """
        if self._congruence_key is None:
            self._congruence_key = _congruence_key(
                self.shape_digest, self.coll_count, self.coll_active,
                self.coll_ops)
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


def _gather(index):
    """``values -> [values[i] for i in index]``, in one C-level pass."""
    if len(index) > 1:
        get = itemgetter(*index)
        return lambda values: list(get(values))
    return lambda values: [values[i] for i in index]


def _digest(*parts) -> str:
    """sha256 over the ``repr`` of each part, ``;``-separated."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b";")
    return h.hexdigest()


def _streams(codes, args):
    """Each device's code stream, then its arg stream, device by device."""
    for device_codes, device_args in zip(codes, args):
        yield device_codes
        yield device_args


def _shape_digest(shape: dict) -> str:
    """The control-flow shape arrays the structural pass reads, hashed
    once per lowering."""
    return _digest(
        ("devices", shape["devices"], shape["prefetch"], shape["n_slots"]),
        *_streams(shape["codes"], shape["args"]),
        shape["comp_device"],
        (shape["dep_ptr"], shape["dep_remote"], shape["dep_idx"]),
        (shape["send_src"], shape["send_dst"], shape["send_slot"]),
        shape["recv_slot"],
        (shape["batch_send_ids"], shape["batch_recv_ids"],
         shape["batch_exch"]),
        (shape["coll_device"], shape["coll_blocking"], shape["coll_nsteps"]),
    )


def _congruence_key(digest: str, coll_count, coll_active, coll_ops) -> str:
    # the lane fold sums gradient rings by the structure's table, so
    # the collective kinds enter the key with their counts
    return _digest(digest, coll_count, coll_active,
                   [c.kind.value for c in coll_ops])


def _size_columns(program: Program, colls, shape) -> dict:
    """The byte-bearing columns of ``program`` — whose collectives, in
    lowering order, are ``colls`` — over the lowered ``shape`` (its
    arrays by name), and the congruence key they complete.  Bytes are
    looked up once per tag and per stage, then gathered."""
    coll_count = [float(act.count) for act in colls]
    coll_active = [bool(pairs) and act.nbytes > 0 and act.count > 0
                   for act, pairs in zip(colls, shape["coll_pairs"])]
    # a forward pins its stage's activation at start, a backward frees
    # it at end: interleaved per-stage tables, gathered by comp_cell
    if program.tracks_memory:
        act = program.resources.activation_bytes
        by_cell = _gather(shape["comp_cell"])
        comp_alloc = by_cell([v for a in act for v in (a, 0.0)])
        comp_free = by_cell([v for a in act for v in (0.0, a)])
    else:
        comp_alloc = [0.0] * len(shape["comp_cell"])
        comp_free = comp_alloc[:]
    nbytes = program.tensor_bytes
    return dict(
        comp_alloc=comp_alloc,
        comp_free=comp_free,
        send_nbytes=_gather(shape["send_tag"])(
            [nbytes.get(tag, 0.0) for tag in shape["tags"]]),
        coll_ops=tuple(colls),
        coll_count=coll_count,
        coll_active=coll_active,
        coll_chunk=[act.nbytes / len(act.group) if act.group else 0.0
                    for act in colls],
        _congruence_key=_congruence_key(shape["shape_digest"], coll_count,
                                        coll_active, colls),
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
    comp_cell: list[int] = []
    for key, op in program.ops.items():
        comp_ids[key] = len(comp_ops)
        comp_ops.append(op)
        comp_keys.append(key)
        comp_device.append(dev_index[op.device])
        comp_cell.append(2 * op.stage + (op.kind is not OpKind.FORWARD))

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
    send_edge: list[int] = []
    edge_ids: dict[tuple[int, int], int] = {}

    def intern_send(di: int, send: Send) -> int:
        sid = len(send_src)
        tid = intern_tag(send.tag)
        # keep the send's own object: ``program.tensor_bytes`` is keyed
        # by it, so a size binding's byte lookups hit by identity
        tags[tid] = send.tag
        dst = dev_index[send.peer]
        stage = send.tag.stage
        send_src.append(di)
        send_dst.append(dst)
        send_tag.append(tid)
        send_stage.append(stage)
        send_slot.append(intern_slot(dst, tid))
        send_edge.append(edge_ids.setdefault((di, dst), len(edge_ids)))
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

    shape = dict(
        devices=devices,
        prefetch=program.prefetch,
        codes=tuple(codes),
        args=tuple(args),
        n_actions=n_actions,
        comp_ops=tuple(comp_ops),
        comp_keys=tuple(comp_keys),
        comp_device=comp_device,
        comp_cell=comp_cell,
        dep_ptr=dep_ptr,
        dep_remote=dep_remote,
        dep_idx=dep_idx,
        send_src=send_src,
        send_dst=send_dst,
        send_tag=send_tag,
        send_stage=send_stage,
        send_slot=send_slot,
        send_edge=send_edge,
        edges=tuple(edge_ids),
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
    )
    shape["shape_digest"] = _shape_digest(shape)
    return shape, colls
