"""Event-driven execution of a compiled program, on its lowered form.

This is the single-lane event core every modeled execution shares.  It
does not interpret the rich Program IR: :func:`execute_program` first
lowers the program to an :class:`~repro.actions.lowering.ExecutablePlan`
— flat integer arrays with precomputed costs, interned wires and CSR
dependency edges — and :func:`execute_plan` runs over those indices.
The result is bit-identical to the pre-lowering interpreter, which the
test suite keeps as its oracle and compares against over the full
schedule-family × prefetch × batching matrix.  The module needs no
NumPy; :mod:`repro.runtime.batched` adds only the lane axis on top.

Drivers
-------

Without contention every start time is a function of already-fixed
quantities (producer ends, post times), so timing is independent of
replay order, and whether an action blocks depends only on posted/done
flags.  An uncontended execution therefore splits in two:

1. a **structural pass** (:func:`lockstep_schedule`): a cost-blind
   greedy walk that records the global event sequence, the executed
   compute and posting orders and, if the walk stalls, where;
2. a **timed pass** (:func:`replay`) over that event sequence, written
   once over ``(maximum, minimum, zero)``: one lane runs it with the
   builtins on Python floats, a batch with ufuncs on ``[N]`` vectors.

The structural pass reads only arrays that
:attr:`~repro.actions.lowering.ExecutablePlan.congruence_key` hashes,
so it runs once per congruence class: a weak registry maps each key to
its :class:`LockstepSchedule`, and each program keeps one memo,
``(structure, memory trace)``, that holds it strongly.  Only the
:class:`MemoryTrace` is per program, i.e. per size binding: watermark
levels are structural too (deltas apply in program order), but the
deltas and static bytes are the program's own.  A stalled walk keeps
its cursors and flags, and :func:`_deadlock` words the error from each
program's own plan.

A second invariant keeps the compute step branch-free: a *local*
dependency always names a producer on the consumer's own device (the
structural pass rejects any other program with a
:class:`~repro.errors.SchedulingError`, the time-ordered driver any
whose head waits on one) and device clocks are monotone, so local
dependencies gate blocking only.

``contention=True`` runs the time-ordered driver instead
(:func:`run_contended`): wire arbitration happens at post time, so
heads execute in global time order.  Blocking reads only flags that are
never cleared, so a deadlocking program stalls every driver in the same
state, and :func:`_deadlock` words the error identically for both.

The driver keeps each device's head time between steps instead of
re-timing every head per step.  A head's time reads its own device's
clock and retired computes (the local-dependency invariant above),
slots that are written once, when posted, and its own group's post
flag — never wire state.  So a runnable head keeps its time until its
own device steps, and a blocked head can only wake when another device
posts a slot addressed to it.  After each step the driver re-times the
device that stepped and, for every send the step posted, the receiver
if its head is blocked.

Timing model
------------

* **Compute** starts when the device is free, its local inputs are
  produced, and (with prefetch) its remote inputs have arrived.
* **Send** is a non-blocking post: the transfer is scheduled the moment
  the sender's cursor passes the action (which, by compiler invariant,
  is the instant the producing compute retires).
* **Recv** under ``prefetch=True`` is a free post — the transfer
  overlaps the receiver's earlier compute and only surfaces as *recv
  wait* when the receiver goes idle for it.  Under ``prefetch=False``
  the receiver participates in the transfer: its clock advances by the
  full transfer duration (charged to ``recv_wait``; the timeline keeps
  compute spans only, so bubble accounting treats the transfer as
  idle — matching the paper's bubble convention).
* **BatchedP2P** posts its whole group before waiting (the
  ``batch_isend_irecv`` discipline of Sec. 4.2).
* **CollectiveOp** (see :mod:`repro.actions.collectives`) executes a
  ring all-reduce as its ``2 * (D - 1)`` per-chunk steps, each lasting
  as long as the slowest ring link; a device's collectives serialize on
  a per-device NIC cursor (bucketed-NCCL style).  Asynchronous
  collectives (DP gradient sync) never advance the device clock — their
  completion only bounds the *iteration* end, which is how bubble
  overlap is measured instead of assumed.  Blocking collectives (TP
  boundary all-reduces) advance the clock like compute.  Replica
  symmetry: every data-parallel replica executes the same program, so
  the off-program ring peers are ready exactly when the owning device
  is — one simulated pipeline times the whole ring.

Both modes account ``recv_wait`` per device: blocking transfers charge
their full duration, prefetched transfers charge the residual stall
between "device ready" and "tensor arrived".

Optional fidelity knobs (:class:`~repro.config.RunConfig`):

* ``contention=True`` serializes transfers that share an (unordered)
  device pair — one wire per pair, NCCL-style.
* Under contention, opposing transfers posted as one batched group
  share the wire back-to-back and the follower skips the link launch
  latency (:meth:`CostOracle.link`'s second half): the batched saving.

Memory model
------------

When the program carries :class:`~repro.actions.StageResources`, the
core maintains **live per-device watermarks** from the plan's
precomputed per-compute resource deltas: every device starts at its
static residency bytes, each forward start allocates its stage's
activation bytes, each backward end frees them.  Per device the deltas
are applied in execution (= program) order, which makes the resulting
peaks bit-identical to the offline timeline replay
(:func:`repro.runtime.memory.memory_stats`) — pinned by the parity
suite.  An optional ``capacity_bytes`` turns the watermarks into an
enforcement mechanism: a violating allocation aborts the run with a
structured :class:`~repro.errors.OutOfMemoryError` (after an O(P)
static pre-check that rejects statically-infeasible programs before a
single event is simulated).  The abort fires at the first violation
*in replay order* — deterministic per driver, but the attributed
device/peak may differ between the structural and time-ordered
drivers when several devices would violate; the OOM *verdict* is
driver-independent.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from ..actions.lowering import (
    OP_BATCH,
    OP_COLL,
    OP_COMPUTE,
    OP_RECV,
    OP_SEND,
    ExecutablePlan,
)
from ..actions.ops import Action, CollectiveKind, CollectiveOp, Tag
from ..actions.program import Program
from ..config import RunConfig
from ..errors import OutOfMemoryError, SchedulingError
from ..types import TimedOp, Timeline
from .costs import CostOracle


@dataclass(frozen=True)
class CommEvent:
    """One completed point-to-point transfer."""

    tag: Tag
    src: int
    dst: int
    post: float     # sender posted the transfer
    start: float    # the wire picked it up (== post without contention)
    end: float      # arrival at the receiver
    nbytes: float
    batched: bool   # posted from inside a BatchedP2P group

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CollectiveEvent:
    """One executed collective, with its per-step ring schedule.

    ``steps`` holds the ``(start, end)`` interval of each of the first
    ring round's ``2 * (D - 1)`` chunk steps; for ``op.count != 1`` the
    remaining rounds extend ``end`` without per-step detail (they
    repeat the first round back-to-back).
    """

    op: CollectiveOp
    device: int      # program-local device that owns this collective
    post: float      # the cursor reached the action
    start: float     # first ring step began (>= post: NIC + wire waits)
    end: float       # last chunk arrived everywhere
    steps: tuple[tuple[float, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class MemoryEvent:
    """One watermark change on a device: an activation alloc or free."""

    device: int
    time: float     # forward start (alloc) or backward end (free)
    delta: float    # signed bytes
    level: float    # device watermark after applying the delta
    key: tuple      # the compute (kind, microbatch, stage) responsible


@dataclass
class EventResult:
    """Everything one program execution produces."""

    timeline: Timeline
    #: per-device seconds stalled on incoming tensors (see module doc)
    recv_wait: dict[int, float]
    #: every transfer, in posting order
    comm: list[CommEvent] = field(default_factory=list)
    #: per-device executed action order — the parity witness: always a
    #: prefix-complete replay of ``program.actions``
    order: dict[int, list[Action]] = field(default_factory=dict)
    #: per-device peak memory bytes (static + live activations); empty
    #: when the program carries no resources
    mem_peak: dict[int, float] = field(default_factory=dict)
    #: every watermark change, in per-device execution order
    mem_events: list[MemoryEvent] = field(default_factory=list)
    #: every executed collective, in posting order
    collectives: list[CollectiveEvent] = field(default_factory=list)
    #: per-device clock when its program finished — unlike the compute
    #: timeline this includes blocking communication (TP collectives,
    #: blocking receives) that trails the device's last compute span
    device_end: dict[int, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def busy_end(self) -> float:
        """End of all compute *and* blocking communication."""
        return max([self.timeline.makespan]
                   + list(self.device_end.values()))

    def sync_done(self) -> float:
        """When the last asynchronous gradient sync completed (0 if none)."""
        ends = [c.end for c in self.collectives
                if c.op.kind is CollectiveKind.GRAD_SYNC]
        return max(ends) if ends else 0.0


def execute_program(
    program: Program,
    costs: CostOracle,
    run: RunConfig | None = None,
    capacity_bytes: int | None = None,
) -> EventResult:
    """Lower ``program`` against ``costs`` and execute the plan.

    The one-shot convenience entry: callers that execute the same
    structure repeatedly (sweeps, benches) lower once with
    :meth:`ExecutablePlan.lower` / :meth:`ExecutablePlan.retime` and
    call :func:`execute_plan` directly.

    Raises :class:`SchedulingError` if the worker programs deadlock —
    an action waits for a transfer whose sender is queued behind it.

    ``capacity_bytes`` (requires a resource-annotated program) arms the
    memory watermarks: the run aborts with
    :class:`~repro.errors.OutOfMemoryError` at the first violating
    allocation encountered in replay order — statically-infeasible
    programs are rejected in O(P) before the event loop starts.
    """
    # Reject statically-infeasible programs before lowering binds the
    # oracle: an OOM verdict on static bytes alone must not pay (or
    # depend on) a single cost lookup.
    check_capacity(program, capacity_bytes)
    return execute_plan(ExecutablePlan.lower(program, costs), run,
                        capacity_bytes=capacity_bytes)


def check_capacity(program: Program, capacity_bytes: int | None) -> None:
    """Refuse a capacity on an unannotated program; run the O(P)
    static pre-check (no-op without a capacity)."""
    if capacity_bytes is None:
        return
    if not program.tracks_memory:
        raise SchedulingError(
            f"{program.name}: capacity enforcement needs a "
            "resource-annotated program (compile with resources=...)"
        )
    program.check_static_memory(capacity_bytes)


def execute_plan(
    plan: ExecutablePlan,
    run: RunConfig | None = None,
    capacity_bytes: int | None = None,
) -> EventResult:
    """Run a lowered (and cost-bound) plan; see the module doc.

    Blocking-vs-overlapped receives are a property of the *compiled*
    program (the prefetch hoisting pass and asynchronous recv semantics
    belong together), so execution follows the plan's flag — a
    RunConfig compiled-elsewhere mismatch cannot silently mis-time the
    run.  RunConfig contributes the fidelity knobs (``contention``).
    """
    run = run or RunConfig()
    if not plan.bound:
        raise SchedulingError(
            f"{plan.name}: plan is not cost-bound; lower with an oracle "
            "or call plan.retime(costs) first"
        )
    if run.contention:
        return _materialize(plan, *run_contended(plan, capacity_bytes))
    ls, trace, timing = replay_alone(plan, capacity_bytes)
    return lane_view(plan, ls, trace, *timing)


# -- the structural pass -------------------------------------------------------

#: structural event kinds (first element of each event tuple)
_COMP = 0      # (_, cid, di, remote_slots)
_SEND = 1      # (_, sid, di)
_RECV = 2      # (_, rid, di)         blocking receive (prefetch off)
_POST = 3      # (_, bid, di)         batched group posts its sends
_WAIT = 4      # (_, bid, di)         batched group's blocking waits
_COLL = 5      # (_, lid, di)

#: one structure per congruence class, alive while a program's memo
#: holds it (the lifetime rule of the analysis plan cache's shapes)
_STRUCTURES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: the per-program memo: ``(structure, memory trace)``
_LOCKSTEP_ATTR = "_lockstep"


@dataclass
class LockstepSchedule:
    """The structural replay of one congruence class.

    Everything here is cost- and size-blind, so every program with this
    :attr:`~repro.actions.lowering.ExecutablePlan.congruence_key`
    shares it: the global event sequence the greedy walk produces, the
    executed compute and posting orders and, if the walk stalls, where.
    """

    key: str
    events: list[tuple]
    exec_seq: list[int]
    #: computes grouped per device (ascending device id, program order
    #: within a device) — the order the lane fold sums busy time in
    dev_cids: list[list[int]]
    post_seq: list[int]
    send_batched: bytearray
    #: per collective id, whether it is a ``GRAD_SYNC`` ring — the ones
    #: the lane fold's sync accounting adds up
    coll_sync: bytes
    #: ``(cursors, comp_done, posted)`` where the walk stalled, else
    #: None; :func:`_deadlock` words it from each program's own plan
    stall: tuple | None
    # -- caches :mod:`repro.runtime.batched` keeps per structure ---------
    #: stacked cost matrices keyed by lane set; a structure meets a few
    #: lane sets (one per wire group, say), so a few entries are kept
    cost_rows: dict = field(default_factory=dict)
    #: the contention driver's lookup tables per wire table
    contention_tables: dict = field(default_factory=dict)


@dataclass
class MemoryTrace:
    """One program's watermarks over its class's executed order.

    Levels depend only on per-device program order, so they hold for
    every cost binding of the program.
    """

    #: (di, cid, signed delta, level-after, is_alloc) in replay order
    mem_trace: list[tuple]
    #: per-allocation watermark levels / positions, for the OOM scan
    alloc_levels: array
    alloc_pos: list[int]       # index into ``exec_seq`` of the alloc
    alloc_di: list[int]
    mem_peak: list[float]


def _comp_name(plan: ExecutablePlan, cid: int) -> str:
    kind, mb, st = plan.comp_keys[cid]
    return f"{kind.value}(m{mb},s{st})"


def _cross_device_dep(plan: ExecutablePlan, cid: int,
                      producer: int) -> SchedulingError:
    """The refusal of a local dependency across devices."""
    devices, comp_device = plan.devices, plan.comp_device
    return SchedulingError(
        f"{plan.program.name}: {_comp_name(plan, cid)} on "
        f"d{devices[comp_device[cid]]} has a local dependency on "
        f"{_comp_name(plan, producer)} on d{devices[comp_device[producer]]}")


def dev_rows(plan: ExecutablePlan, exec_seq) -> list[list[int]]:
    """``exec_seq`` grouped per device: ascending device id, execution
    (= program) order within a device."""
    comp_ops = plan.comp_ops
    by_device: dict[int, list[int]] = {}
    for cid in exec_seq:
        by_device.setdefault(comp_ops[cid].device, []).append(cid)
    return [cids for _dev, cids in sorted(by_device.items())]


def _build_lockstep(plan: ExecutablePlan, key: str) -> LockstepSchedule:
    """Walk ``plan`` greedily without times, recording every event.

    Each device advances as far as its flags allow, round after round:
    blocking predicates are pure flag reads, so the produced order is
    the order every cost binding replays.
    """
    num_devices = len(plan.devices)
    codes, args = plan.codes, plan.args
    dep_ptr, dep_remote, dep_idx = plan.dep_ptr, plan.dep_remote, plan.dep_idx
    comp_device = plan.comp_device
    send_slot = plan.send_slot
    batch_send_ids, batch_recv_ids = plan.batch_send_ids, plan.batch_recv_ids
    recv_slot = plan.recv_slot
    prefetch = plan.prefetch

    cursors = [0] * num_devices
    comp_done = bytearray(plan.n_computes)
    posted = bytearray(plan.n_slots)
    batch_posted = bytearray(len(batch_send_ids))
    send_batched = bytearray(len(plan.send_src))
    events: list[tuple] = []
    exec_seq: list[int] = []
    post_seq: list[int] = []

    def step(di: int, i: int) -> bool:
        """Execute one action; False if the device must block."""
        code = codes[di][i]
        a = args[di][i]
        if code == OP_COMPUTE:
            rslots: list[int] = []
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                x = dep_idx[e]
                if dep_remote[e]:
                    # Without prefetch the blocking Recv already waited.
                    if prefetch:
                        if not posted[x]:
                            return False  # sender hasn't posted yet
                        rslots.append(x)
                elif comp_device[x] != di:
                    # a cross-device hand-off must be a transfer: timing
                    # it from another device's compute end would break
                    # the branch-free compute step (module doc)
                    raise _cross_device_dep(plan, a, x)
                elif not comp_done[x]:
                    # The producer must have retired earlier on this
                    # device; if it hasn't, the program order is
                    # inverted and the device blocks (a deadlock).
                    return False
            comp_done[a] = 1
            events.append((_COMP, a, di, tuple(rslots)))
            exec_seq.append(a)
            return True
        if code == OP_SEND:
            posted[send_slot[a]] = 1
            events.append((_SEND, a, di))
            post_seq.append(a)
            return True
        if code == OP_COLL:
            events.append((_COLL, a, di))
            return True
        if code == OP_RECV:
            if prefetch:
                return True  # free post; arrival is awaited by computes
            if not posted[recv_slot[a]]:
                return False
            events.append((_RECV, a, di))
            return True
        if code == OP_BATCH:
            # Group semantics: all posts are issued the moment the
            # cursor reaches the group — even while its own waits
            # block — or opposing groups would deadlock each other.
            if not batch_posted[a]:
                for sid in batch_send_ids[a]:
                    posted[send_slot[sid]] = 1
                    send_batched[sid] = 1
                    post_seq.append(sid)
                batch_posted[a] = 1
                events.append((_POST, a, di))
            if not prefetch:
                for rid in batch_recv_ids[a]:
                    if not posted[recv_slot[rid]]:
                        return False
                events.append((_WAIT, a, di))
            return True
        return True  # OP_NOOP: flush/step; simulate_training charges it

    total = plan.n_actions
    done = 0
    stall = None
    while done < total:
        progressed = False
        for di in range(num_devices):
            n = len(codes[di])
            i = cursors[di]
            while i < n and step(di, i):
                i += 1
                done += 1
                progressed = True
            cursors[di] = i
        if not progressed and done < total:
            stall = (cursors, comp_done, posted)
            break

    return LockstepSchedule(
        key=key,
        events=events,
        exec_seq=exec_seq,
        dev_cids=dev_rows(plan, exec_seq),
        post_seq=post_seq,
        send_batched=send_batched,
        coll_sync=bytes(op.kind is CollectiveKind.GRAD_SYNC
                        for op in plan.coll_ops),
        stall=stall,
    )


def _memory_trace(plan: ExecutablePlan, ls: LockstepSchedule) -> MemoryTrace:
    """``plan``'s deltas and static bytes applied over ``ls``'s executed
    order, with the leak check of a completed walk."""
    program = plan.program
    devices = plan.devices
    static = [program.static_bytes.get(d, 0.0) for d in devices]
    if not program.tracks_memory:
        return MemoryTrace([], array("d"), [], [], static)
    comp_device = plan.comp_device
    comp_alloc, comp_free_b = plan.comp_alloc, plan.comp_free
    mem_level = list(static)
    mem_peak = list(static)
    mem_trace: list[tuple] = []
    alloc_levels = array("d")
    alloc_pos: list[int] = []
    alloc_di: list[int] = []
    for pos, a in enumerate(ls.exec_seq):
        di = comp_device[a]
        alloc = comp_alloc[a]
        if alloc:
            level = mem_level[di] + alloc
            mem_level[di] = level
            mem_trace.append((di, a, alloc, level, True))
            alloc_levels.append(level)
            alloc_pos.append(pos)
            alloc_di.append(di)
            if level > mem_peak[di]:
                mem_peak[di] = level
        freed = comp_free_b[a]
        if freed:
            level = mem_level[di] - freed
            mem_level[di] = level
            mem_trace.append((di, a, -freed, level, False))
    if ls.stall is None:
        _check_leak(devices, mem_level, static, mem_peak)
    return MemoryTrace(mem_trace, alloc_levels, alloc_pos, alloc_di, mem_peak)


def _memo(plan: ExecutablePlan) -> tuple[LockstepSchedule, MemoryTrace]:
    """``plan``'s program memo: its class's structure, its own trace.

    The structure comes from the registry, so congruent programs — the
    models and micro-batch sizes bound to one shape, say — pay the
    structural pass once; each program pays only its memory trace.
    Every retime of a program shares the program object, so a sweep
    looks both up once per program, not once per execution.
    """
    program = plan.program
    memo = getattr(program, _LOCKSTEP_ATTR, None)
    if memo is None:
        key = plan.congruence_key
        ls = _STRUCTURES.get(key)
        if ls is None:
            ls = _STRUCTURES[key] = _build_lockstep(plan, key)
        memo = (ls, _memory_trace(plan, ls))
        setattr(program, _LOCKSTEP_ATTR, memo)
    return memo


def lockstep_schedule(plan: ExecutablePlan) -> LockstepSchedule:
    """The (shared) structural replay of ``plan``'s congruence class."""
    return _memo(plan)[0]


def memory_trace(plan: ExecutablePlan) -> MemoryTrace:
    """The (cached) memory trace of ``plan``'s program."""
    return _memo(plan)[1]


def first_violation(trace: MemoryTrace, capacity_bytes: int) -> int | None:
    """Index of the first allocation (replay order) whose watermark
    exceeds ``capacity_bytes`` — the abort point of the structural walk
    — or None when the capacity covers the peak."""
    if capacity_bytes >= max(trace.mem_peak, default=0.0):
        return None
    return next((j for j, level in enumerate(trace.alloc_levels)
                 if level > capacity_bytes), None)


def replay_alone(plan: ExecutablePlan, capacity_bytes: int | None = None):
    """One uncontended lane up to its timing: ``(schedule, trace,
    timing)``.

    The cached structural pass and memory trace, then the verdicts they
    already hold — an :class:`~repro.errors.OutOfMemoryError` at the
    first violating allocation in replay order, else the structure's
    deadlock — then :func:`replay` on Python floats over the plan's own
    cost columns (builtin ``max`` / ``min`` select bitwise as the ufuncs
    do: no lane quantity is ever NaN or -0.0).
    """
    check_capacity(plan.program, capacity_bytes)
    ls, trace = _memo(plan)
    if capacity_bytes is not None:
        j = first_violation(trace, capacity_bytes)
        if j is not None:
            raise OutOfMemoryError(plan.devices[trace.alloc_di[j]],
                                   int(trace.alloc_levels[j]),
                                   capacity_bytes)
    if ls.stall is not None:
        raise SchedulingError(_deadlock(plan, *ls.stall))
    return ls, trace, replay(ls, plan, plan.comp_cost, plan.send_time,
                             plan.coll_step_time, max, min, 0.0)


def replay(ls: LockstepSchedule, plan: ExecutablePlan, Cm, Tm, Sm,
           maximum, minimum, zero):
    """The timed pass over ``ls``'s event sequence.

    ``Cm`` / ``Tm`` / ``Sm`` hold per compute / send / collective the
    lane durations (floats for one lane, ``[N]`` vectors for a batch);
    ``maximum`` / ``minimum`` / ``zero`` are the matching builtins or
    ufuncs.  ``plan`` supplies the structural arrays only.  Returns
    ``(compute starts, compute ends, device clocks, recv waits, slot
    starts, slot ends, collectives)``, the last as ``(lid, di, post,
    start, end, ring steps)`` in structural order.
    """
    num_devices = len(plan.devices)
    send_slot = plan.send_slot
    batch_send_ids, batch_recv_ids = plan.batch_send_ids, plan.batch_recv_ids
    recv_slot = plan.recv_slot
    coll_active, coll_nsteps = plan.coll_active, plan.coll_nsteps
    coll_count, coll_blocking = plan.coll_count, plan.coll_blocking

    clock = [zero] * num_devices
    coll_free = [zero] * num_devices
    recv_wait = [zero] * num_devices
    # every record below is reference-assigned (each slot posts once,
    # each compute executes once, lane vectors are never mutated in
    # place)
    ts_l: list = [None] * plan.n_slots
    te_l: list = [None] * plan.n_slots
    cs_l: list = [None] * plan.n_computes
    ce_l: list = [None] * plan.n_computes
    coll_log: list[tuple] = []

    for ev in ls.events:
        kind = ev[0]
        if kind == _COMP:
            _, a, di, rslots = ev
            ready = clock[di]
            if rslots:
                r = rslots[0]
                arrival = te_l[r]
                in_flight = te_l[r] - ts_l[r]
                for r in rslots[1:]:
                    arrival = maximum(arrival, te_l[r])
                    in_flight = in_flight + (te_l[r] - ts_l[r])
                # Only the transfer-attributable share of the stall is
                # recv wait (waiting on the producer is a bubble): add
                # min(stall, in_flight) when arrival > ready.  Adding
                # an exact 0.0 elsewhere is bitwise neutral (the
                # accumulator is never -0.0), and in_flight >= 0, so
                # max(min(stall, in_flight), 0) is that select in one op
                recv_wait[di] = recv_wait[di] + maximum(
                    minimum(arrival - ready, in_flight), 0.0)
                start = maximum(ready, arrival)
            else:
                start = ready
            end = start + Cm[a]
            cs_l[a] = start
            ce_l[a] = end
            clock[di] = end
        elif kind == _SEND:
            _, sid, di = ev
            post = clock[di]
            slot = send_slot[sid]
            ts_l[slot] = post
            te_l[slot] = post + Tm[sid]
        elif kind == _POST:
            _, bid, di = ev
            post = clock[di]
            for sid in batch_send_ids[bid]:
                slot = send_slot[sid]
                ts_l[slot] = post
                te_l[slot] = post + Tm[sid]
        elif kind == _RECV:
            _, rid, di = ev
            slot = recv_slot[rid]
            s = ts_l[slot]
            duration = te_l[slot] - s
            clock[di] = maximum(clock[di], s) + duration
            recv_wait[di] = recv_wait[di] + duration
        elif kind == _WAIT:
            _, bid, di = ev
            for rid in batch_recv_ids[bid]:
                slot = recv_slot[rid]
                s = ts_l[slot]
                duration = te_l[slot] - s
                clock[di] = maximum(clock[di], s) + duration
                recv_wait[di] = recv_wait[di] + duration
        else:  # _COLL
            _, lid, di = ev
            post = clock[di]
            start = maximum(post, coll_free[di])
            t = start
            steps: tuple = ()
            if coll_active[lid]:
                step_time = Sm[lid]
                step_log = []
                round_time = None
                for _ in range(coll_nsteps[lid]):
                    e = t + step_time
                    step_log.append((t, e))
                    round_time = (step_time if round_time is None
                                  else round_time + step_time)
                    t = e
                count = coll_count[lid]
                if count != 1.0:
                    # remaining rounds repeat the first back-to-back
                    t = t + (count - 1.0) * round_time
                steps = tuple(step_log)
            coll_free[di] = t
            coll_log.append((lid, di, post, start, t, steps))
            if coll_blocking[lid]:
                clock[di] = t
    return cs_l, ce_l, clock, recv_wait, ts_l, te_l, coll_log


def lane_view(plan: ExecutablePlan, ls: LockstepSchedule, trace: MemoryTrace,
              cs, ce, clock, recv_wait, ts, te, colls,
              at=float) -> EventResult:
    """One lane of an uncontended pass as an :class:`EventResult`.

    ``cs`` / ``ce`` are the lane's compute starts / ends as floats;
    every other argument is :func:`replay`'s, and ``at`` reads the
    lane's float out of one of its quantities.  The wire grants a
    transfer the moment it is posted, and every log keeps structural
    order.
    """
    ss = [at(ts[slot]) for slot in plan.send_slot]
    se = [at(te[slot]) for slot in plan.send_slot]
    mem = [(di, cs[cid] if is_alloc else ce[cid], delta, level, cid)
           for di, cid, delta, level, is_alloc in trace.mem_trace]
    coll = [(lid, di, at(post), at(start), at(end),
             tuple((at(s), at(e)) for s, e in steps))
            for lid, di, post, start, end, steps in colls]
    return _materialize(
        plan, ls.exec_seq, cs, ce, ls.post_seq, ss, ss, se,
        ls.send_batched, coll, mem, [at(x) for x in clock],
        [at(x) for x in recv_wait],
        trace.mem_peak if plan.program.tracks_memory else None)


# -- the contention driver -----------------------------------------------------

#: a blocked (or finished) device's head time in the contention driver
_INF = float("inf")


def _deadlock(plan: ExecutablePlan, cursors, comp_done, posted) -> str:
    """The deadlock message for a walk stalled at ``cursors``.

    Names every device's head, then explains the stall: every blocked
    device waits on exactly one other device (the sender of an unposted
    slot, or itself for a same-device dependency inversion); following
    those pointers from any blocked device must revisit a device — that
    repetition is the wait cycle.
    """
    program = plan.program
    devices = plan.devices
    codes, args = plan.codes, plan.args
    dep_ptr, dep_remote, dep_idx = plan.dep_ptr, plan.dep_remote, plan.dep_idx
    recv_slot, batch_recv_ids = plan.recv_slot, plan.batch_recv_ids
    prefetch = plan.prefetch
    heads = {
        d: str(acts[cursors[di]])
        for di, (d, acts) in enumerate(program.actions.items())
        if cursors[di] < len(acts)
    }
    slot_sender = {}
    slot_tag = {}
    for sid, slot in enumerate(plan.send_slot):
        slot_sender[slot] = plan.send_src[sid]
        slot_tag[slot] = plan.tags[plan.send_tag[sid]]

    def blocker(di: int) -> tuple[int, str] | None:
        """(blocking device index, reason) for ``di``'s head."""
        i = cursors[di]
        if i >= len(codes[di]):
            return None
        code = codes[di][i]
        a = args[di][i]
        if code == OP_COMPUTE:
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                x = dep_idx[e]
                if dep_remote[e]:
                    if prefetch and not posted[x]:
                        return (slot_sender[x], f"unposted {slot_tag[x]}")
                elif not comp_done[x]:
                    return (plan.comp_device[x],
                            f"unretired {_comp_name(plan, x)}")
        elif code == OP_RECV and not prefetch:
            slot = recv_slot[a]
            if not posted[slot]:
                return (slot_sender[slot], f"unposted {slot_tag[slot]}")
        elif code == OP_BATCH and not prefetch:
            for rid in batch_recv_ids[a]:
                slot = recv_slot[rid]
                if not posted[slot]:
                    return (slot_sender[slot], f"unposted {slot_tag[slot]}")
        return None

    cycle = ""
    start_di = next(
        (di for di in range(len(devices)) if blocker(di) is not None),
        None,
    )
    if start_di is not None:
        hops: list[tuple[int, int, str]] = []
        first = {start_di: 0}
        cur = start_di
        while True:
            blk = blocker(cur)
            if blk is None:  # pragma: no cover - defensive
                break
            nxt, why = blk
            hops.append((cur, nxt, why))
            if nxt in first:
                # keep only the cyclic suffix of the walk
                hops = hops[first[nxt]:]
                cycle = "; wait cycle: " + " -> ".join(
                    f"d{devices[a_]} waits on d{devices[b_]} ({w})"
                    for a_, b_, w in hops
                )
                break
            first[nxt] = len(hops)
            cur = nxt
    return f"{program.name}: simulation deadlock; heads = {heads}{cycle}"


def _check_leak(devices, mem_level, static, mem_peak) -> None:
    for di, level in enumerate(mem_level):
        drift = level - static[di]
        # tolerance: float accumulation over many alloc/free pairs of
        # non-representable byte counts (e.g. TP-sharded sizes)
        if abs(drift) > max(64.0, 1e-9 * mem_peak[di]):
            raise AssertionError(
                f"activation leak on device {devices[di]}: {drift} bytes")


class ScalarRun(NamedTuple):
    """The flat arrays one time-ordered run fills: the arguments of
    :func:`_materialize` after the plan."""

    exec_seq: list[int]
    comp_start: list[float]
    comp_end: list[float]
    post_seq: list[int]
    send_post: list[float]
    send_start: list[float]
    send_end: list[float]
    send_batched: bytearray
    #: (lid, di, post, start, end, steps) in execution order
    coll_log: list[tuple]
    #: (di, time, delta, level, cid) in execution order
    mem_log: list[tuple]
    clock: list[float]
    recv_wait: list[float]
    mem_peak: list[float] | None


def run_contended(plan: ExecutablePlan,
                   capacity_bytes: int | None = None) -> ScalarRun:
    """The time-ordered driver: execute heads in global time order.

    Wire arbitration happens at send-post time, so posts must be issued
    in nondecreasing simulated time or an earlier-posted transfer could
    queue behind a later one (a replay-order artifact).  Executing the
    globally earliest eligible head is sufficient: any action enabled by
    an execution at time ``t`` becomes eligible no earlier than ``t``,
    so execution times are monotone and wire grants follow post order
    deterministically (ties broken by device rank).

    ``heads`` caches each device's :func:`peek` (``inf`` when blocked or
    done; see the module doc for why a cached time stays exact): a step
    re-peeks its own device and the blocked receivers of the sends it
    posted, and ``min`` / ``index`` pick the earliest head, lowest rank
    first.  A compute head's peek leaves its recv-wait charge in
    ``head_wait``, so its step does not walk the dependencies again.
    """
    program = plan.program
    check_capacity(program, capacity_bytes)
    tracked = program.tracks_memory
    prefetch = plan.prefetch

    devices = plan.devices
    num_devices = len(devices)
    codes, args = plan.codes, plan.args
    dep_ptr, dep_remote, dep_idx = plan.dep_ptr, plan.dep_remote, plan.dep_idx
    comp_cost = plan.comp_cost
    comp_alloc, comp_free_b = plan.comp_alloc, plan.comp_free
    send_time, send_lat = plan.send_time, plan.send_lat
    send_wire, send_slot = plan.send_wire, plan.send_slot
    send_dst, comp_device = plan.send_dst, plan.comp_device
    batch_send_ids, batch_recv_ids = plan.batch_send_ids, plan.batch_recv_ids
    batch_exch = plan.batch_exch
    recv_slot = plan.recv_slot
    coll_active, coll_step_time = plan.coll_active, plan.coll_step_time
    coll_wires, coll_nsteps = plan.coll_wires, plan.coll_nsteps
    coll_count, coll_blocking = plan.coll_count, plan.coll_blocking

    n_comp = plan.n_computes
    n_send = len(plan.send_src)
    n_slot = plan.n_slots

    # preallocated per-device cursors and clocks
    cursors = [0] * num_devices
    clock = [0.0] * num_devices
    recv_wait = [0.0] * num_devices
    coll_free = [0.0] * num_devices
    # array ready-state: replaces produced:dict and transfers:dict
    comp_done = bytearray(n_comp)
    comp_start_a = [0.0] * n_comp
    comp_end_a = [0.0] * n_comp
    exec_seq: list[int] = []
    posted = bytearray(n_slot)
    tr_start = [0.0] * n_slot
    tr_end = [0.0] * n_slot
    send_post_a = [0.0] * n_send
    send_start_a = [0.0] * n_send
    send_end_a = [0.0] * n_send
    send_batched = bytearray(n_send)
    post_seq: list[int] = []
    batch_posted = bytearray(len(batch_send_ids))
    wire_free = [0.0] * plan.n_wires
    wire_exch = [-1] * plan.n_wires
    coll_log: list[tuple] = []
    static = [program.static_bytes.get(d, 0.0) for d in devices]
    mem_level = list(static)
    mem_peak = list(static)
    mem_log: list[tuple] = []

    def step(di: int, i: int, at: float) -> bool:
        """Execute the device's runnable head, which :func:`peek` timed
        at ``at``; False if a batched group posted but must block."""
        code = codes[di][i]
        a = args[di][i]
        if code == OP_COMPUTE:
            start = at
            recv_wait[di] += head_wait[di]
            end = start + comp_cost[a]
            comp_start_a[a] = start
            comp_end_a[a] = end
            comp_done[a] = 1
            exec_seq.append(a)
            clock[di] = end
            if tracked:
                alloc = comp_alloc[a]
                if alloc:
                    level = mem_level[di] + alloc
                    mem_level[di] = level
                    mem_log.append((di, start, alloc, level, a))
                    if level > mem_peak[di]:
                        mem_peak[di] = level
                        if (capacity_bytes is not None
                                and level > capacity_bytes):
                            raise OutOfMemoryError(devices[di], int(level),
                                                   capacity_bytes)
                freed = comp_free_b[a]
                if freed:
                    level = mem_level[di] - freed
                    mem_level[di] = level
                    mem_log.append((di, end, -freed, level, a))
            return True
        if code == OP_SEND:
            t = send_time[a]
            post = clock[di]
            start = post
            if t > 0.0:
                w = send_wire[a]
                if post < wire_free[w]:
                    start = wire_free[w]
                wire_free[w] = start + t
                wire_exch[w] = -1
            slot = send_slot[a]
            tr_start[slot] = start
            tr_end[slot] = start + t
            posted[slot] = 1
            send_post_a[a] = post
            send_start_a[a] = start
            send_end_a[a] = start + t
            post_seq.append(a)
            return True
        if code == OP_COLL:
            post = clock[di]
            cf = coll_free[di]
            start = post if post >= cf else cf
            t = start
            steps: tuple = ()
            if coll_active[a]:
                step_time = coll_step_time[a]
                wids = coll_wires[a]
                step_log = []
                round_time = 0.0
                for _ in range(coll_nsteps[a]):
                    step_start = t
                    for w in wids:
                        wf = wire_free[w]
                        if wf > step_start:
                            step_start = wf
                    step_end = step_start + step_time
                    step_log.append((step_start, step_end))
                    round_time += step_time
                    for w in wids:
                        wire_free[w] = step_end
                        wire_exch[w] = -1
                    t = step_end
                count = coll_count[a]
                if count != 1.0:
                    # Remaining rounds repeat the first back-to-back;
                    # the wires stay held for the whole run.
                    t += (count - 1.0) * round_time
                    for w in wids:
                        wire_free[w] = t
                steps = tuple(step_log)
            coll_free[di] = t
            coll_log.append((a, di, post, start, t, steps))
            if coll_blocking[a]:
                clock[di] = t
            return True
        if code == OP_RECV:
            if prefetch:
                return True  # free post; arrival is awaited by computes
            slot = recv_slot[a]
            duration = tr_end[slot] - tr_start[slot]
            clock[di] = at + duration
            recv_wait[di] += duration
            return True
        if code == OP_BATCH:
            # Group semantics: all posts are issued the moment the
            # cursor reaches the group — even while its own waits
            # block — or opposing groups would deadlock each other.
            if not batch_posted[a]:
                exch = batch_exch[a]
                for sid in batch_send_ids[a]:
                    t = send_time[sid]
                    post = clock[di]
                    start = post
                    duration = t
                    if t > 0.0:
                        w = send_wire[sid]
                        if post < wire_free[w]:
                            start = wire_free[w]
                            if wire_exch[w] == exch:
                                # The opposing transfer of the *same*
                                # batched exchange holds the wire; the
                                # follower pays bytes only, not a
                                # second launch latency.
                                duration = t - send_lat[sid]
                                if duration < 0.0:
                                    duration = 0.0
                        wire_free[w] = start + duration
                        wire_exch[w] = exch
                    slot = send_slot[sid]
                    tr_start[slot] = start
                    tr_end[slot] = start + duration
                    posted[slot] = 1
                    send_post_a[sid] = post
                    send_start_a[sid] = start
                    send_end_a[sid] = start + duration
                    send_batched[sid] = 1
                    post_seq.append(sid)
                batch_posted[a] = 1
            if not prefetch:
                recvs = batch_recv_ids[a]
                for rid in recvs:
                    if not posted[recv_slot[rid]]:
                        return False
                for rid in recvs:
                    slot = recv_slot[rid]
                    s = tr_start[slot]
                    duration = tr_end[slot] - s
                    cl = clock[di]
                    start = cl if cl >= s else s
                    clock[di] = start + duration
                    recv_wait[di] += duration
            return True
        return True  # OP_NOOP: flush/step; simulate_training charges it

    def peek(di: int) -> float:
        """Earliest execution time of the device's head; ``inf`` if it
        is blocked or the device is done.  A compute head also leaves
        the recv wait its start charges in ``head_wait``."""
        i = cursors[di]
        dev_codes = codes[di]
        if i >= len(dev_codes):
            return _INF
        code = dev_codes[i]
        a = args[di][i]
        if code == OP_COMPUTE:
            ready = clock[di]
            arrival = 0.0
            have_arrival = False
            in_flight = 0.0
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                x = dep_idx[e]
                if dep_remote[e]:
                    # Without prefetch the blocking Recv already
                    # advanced the clock past the arrival.
                    if prefetch:
                        if not posted[x]:
                            return _INF  # sender hasn't posted yet
                        te = tr_end[x]
                        if not have_arrival or te > arrival:
                            arrival = te
                        have_arrival = True
                        in_flight += te - tr_start[x]
                elif not comp_done[x]:
                    # Local hand-off: the producer must retire earlier
                    # on this device, so this head blocks for good.  A
                    # producer on another device would retire without
                    # waking it: refused, as the structural pass does.
                    if comp_device[x] != di:
                        raise _cross_device_dep(plan, a, x)
                    return _INF
                else:
                    de = comp_end_a[x]
                    if de > ready:
                        ready = de
            if have_arrival and arrival > ready:
                # Only the transfer-attributable share of the stall
                # counts as recv wait; waiting on the *producer* is a
                # bubble, not communication.
                stall = arrival - ready
                head_wait[di] = stall if stall < in_flight else in_flight
                return arrival
            head_wait[di] = 0.0
            return ready
        if code == OP_RECV and not prefetch:
            slot = recv_slot[a]
            if not posted[slot]:
                return _INF
            s = tr_start[slot]
            cl = clock[di]
            return cl if cl >= s else s
        if code == OP_BATCH and not prefetch:
            if not batch_posted[a]:
                return clock[di]  # the posts themselves are due
            earliest = None
            for rid in batch_recv_ids[a]:
                slot = recv_slot[rid]
                if not posted[slot]:
                    return _INF
                s = tr_start[slot]
                if earliest is None or s < earliest:
                    earliest = s
            cl = clock[di]
            return cl if cl >= earliest else earliest
        return clock[di]  # sends, free posts, collectives, flush, step

    head_wait = [0.0] * num_devices
    heads = [peek(di) for di in range(num_devices)]
    total = plan.n_actions
    done = 0
    while done < total:
        at = min(heads)
        if at == _INF:
            raise SchedulingError(_deadlock(plan, cursors, comp_done, posted))
        di = heads.index(at)  # the lowest rank among tied heads
        n_posted = len(post_seq)
        if step(di, cursors[di], at):
            cursors[di] += 1
            done += 1
        # else: a batched group posted its sends but still blocks on
        # inbound transfers — posting was the progress.
        heads[di] = peek(di)
        for sid in post_seq[n_posted:]:
            dst = send_dst[sid]
            if heads[dst] == _INF:
                heads[dst] = peek(dst)

    if tracked:
        _check_leak(devices, mem_level, static, mem_peak)
    return ScalarRun(exec_seq, comp_start_a, comp_end_a, post_seq,
                     send_post_a, send_start_a, send_end_a, send_batched,
                     coll_log, mem_log, clock, recv_wait,
                     mem_peak if tracked else None)


def _materialize(plan, exec_seq, comp_start_a, comp_end_a, post_seq,
                 send_post_a, send_start_a, send_end_a, send_batched,
                 coll_log, mem_log, clock, recv_wait, mem_peak):
    """Rebuild the rich event objects from the run's flat arrays.

    Object construction is deferred out of the hot loop: timeline
    spans, comm/collective/memory events and the executed order are
    assembled once, in the exact order (and with the exact sort keys)
    the reference core produces them, so results stay bit-identical.
    """
    program = plan.program
    devices = plan.devices
    timeline = Timeline()
    comp_ops = plan.comp_ops
    for cid in exec_seq:
        timeline.add(TimedOp(op=comp_ops[cid], start=comp_start_a[cid],
                             end=comp_end_a[cid]))
    for spans in timeline.spans.values():
        spans.sort(key=lambda t: t.start)

    tags, send_tag = plan.tags, plan.send_tag
    send_src, send_dst = plan.send_src, plan.send_dst
    send_nbytes = plan.send_nbytes
    comm = [
        CommEvent(
            tag=tags[send_tag[sid]],
            src=devices[send_src[sid]],
            dst=devices[send_dst[sid]],
            post=send_post_a[sid],
            start=send_start_a[sid],
            end=send_end_a[sid],
            nbytes=send_nbytes[sid],
            batched=bool(send_batched[sid]),
        )
        for sid in post_seq
    ]
    comm.sort(key=lambda e: (e.post, e.start))

    coll_ops = plan.coll_ops
    collectives = [
        CollectiveEvent(op=coll_ops[lid], device=devices[di], post=post,
                        start=start, end=end, steps=steps)
        for lid, di, post, start, end, steps in coll_log
    ]
    collectives.sort(key=lambda e: (e.post, e.start, e.device))

    comp_keys = plan.comp_keys
    mem_events = [
        MemoryEvent(device=devices[di], time=time, delta=delta,
                    level=level, key=comp_keys[cid])
        for di, time, delta, level, cid in mem_log
    ]
    return EventResult(
        timeline=timeline,
        recv_wait={devices[di]: recv_wait[di]
                   for di in range(len(devices))},
        comm=comm,
        # A completed run replays every device list prefix-complete, so
        # the executed order IS the program's lists.
        order={d: list(program.actions[d]) for d in devices},
        mem_peak=({devices[di]: mem_peak[di]
                   for di in range(len(devices))}
                  if mem_peak is not None else {}),
        mem_events=mem_events,
        collectives=collectives,
        device_end={devices[di]: clock[di]
                    for di in range(len(devices))},
    )
