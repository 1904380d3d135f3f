"""Batched multi-plan execution: a vectorized lockstep stepper.

One :class:`~repro.actions.lowering.ExecutablePlan` structure often
meets many cost bindings — the cost-only axes of a sweep (clusters,
capacities), placement candidates, what-if queries.  The scalar event
core (:func:`~repro.runtime.events.execute_plan`) replays the same
control flow for every one of them, paying full interpreter overhead
per lane.  This module amortizes that overhead: a :class:`PlanBatch`
stacks N cost-bound plans sharing one control-flow structure and
:func:`execute_batch` advances **all lanes at once**, one NumPy array
op per event instead of one Python step per event per lane.

The enabling invariant
----------------------

Under the fast (uncontended) driver, the event core's *control flow* is
purely structural: whether an action blocks depends only on posted/done
flags, never on simulated times (see the driver comment in
``events.py`` — "timing is independent of replay order").  Two plans
with equal structure therefore execute the *identical* event sequence,
whatever their cost columns say.  Execution splits cleanly in two:

1. a **structural pass** — a cost-blind twin of the greedy driver that
   runs once per structure (cached on the program object) and records
   the global event sequence, the executed compute order, the posting
   order, and the per-device memory trace (watermark levels are
   structural too: resource deltas apply in program order);
2. a **timed pass** — replays that event sequence with every per-lane
   quantity held as an ``[N]`` float64 array: clocks, collective/NIC
   frontiers, recv-wait accumulators, per-slot transfer windows.  Each
   event becomes a handful of NumPy elementwise ops over the lane axis.

A second invariant makes the compute step branch-free: a *local*
dependency edge always names a producer on the consumer's own device
(compiler invariant, asserted by the structural pass), and per-device
clocks are monotone — so a retired local producer can never push the
consumer's start past the device clock.  Local deps gate *blocking*
only; vectorized compute timing needs just the device clock and the
remote arrival frontier.

Congruent structure groups
--------------------------

Lanes need not share one ``plan_key``:
:attr:`~repro.actions.lowering.ExecutablePlan.congruence_key` hashes
exactly the control-flow arrays (action streams, dependency edges,
transfer slots, exchange membership, collective step structure) and
plans with equal keys — same family/P/B/prefetch but, say, recompute
toggled, a different model, or retimed collective bucket sizes — stack
into one batch.  Each distinct program still contributes its own cached
structural replay (memory traces and materialization tables are
per-lane), but the *event sequence* is shared, so the timed pass runs
once for the whole group.  Defensively, a lane whose recorded event
list does not match the head's (impossible when the keys match, since
the key covers every array the structural pass reads) falls back to
the scalar core whole-lane — the ``structure-divergence`` fallback.

Contention: a time-aware greedy driver
--------------------------------------

``contention=True`` lanes stay in the batch too, through
:func:`_execute_contended`.  The scalar contention driver executes
heads in global *time* order, but only one piece of state depends on
that order: the per-wire arbitration (``wire_free`` / ``wire_exch``),
touched by *wire actions* — sends, batched-group posts and active
collectives.  Every other action times itself from already-final
quantities.  So the vector driver advances each device greedily through
its non-wire actions (a structural closure, as in lockstep) and stops
it at its next wire action.  A parked wire action at time ``t`` on
device ``a`` fires once no other device can still reach one of its
wires before it in the scalar driver's ``(time, device)`` order:

* a device parked at time ``u`` reaches wires no earlier than
  ``(u, device)``;
* a flag-blocked device reaches them no earlier than its clock, and
  strictly after the earliest parked action (only a parked action can
  unblock it, through a transfer of positive duration);
* a device that never touches the wire again does not count.

The earliest parked action of a lane always passes, so every lane
progresses.  Lanes sharing a structural state — cursors plus
posted-group bits — form a **cohort** that evaluates each rule once,
lane-wise; a cohort splits only where its lanes disagree on whether a
contended grant may fire, and cohorts whose states re-converge merge.
A lane whose capacity a later allocation violates runs to the end and
is then charged its abort: the violating allocation the scalar driver
pops first, computes popping in ``(start, device)`` order.  A lane with
a zero-duration transfer next to contended wires leaves the driver for
the scalar core (reason ``zero-time``): a zero-time hand-off can enable
a grant at the very instant of another, and the scalar pick then
follows enabling order rather than device rank.  Lanes whose oracles
intern different wire tables run as separate wire-signature groups.

Columnar results
----------------

A pass returns what it already holds: the ``[·, N]`` matrices (compute
start/end, device clocks, recv-wait, transfer windows, collective
post/start/end and ring-step rows) plus a :class:`~.metrics.LaneFold`
— makespan, bubble ratio, busy end, gradient-sync seconds and end,
peak memory, one row per lane — reduced on the lane axis by
:func:`~.metrics.fold_lanes`.  The measurement layer reads only the
fold; :meth:`BatchResult.lane` builds one lane's
:class:`~repro.runtime.events.EventResult` from column ``k`` when a
trace, a plot or a parity test asks for it.

Bit-identity
------------

Every fold row equals the fold of, and every lane view is **bit
identical** to, a scalar :func:`execute_plan` of that lane alone (pinned
by ``tests/test_batched.py`` across the full schedule-family × prefetch
× capacity × collectives × TP/DP × contention matrix).  The array
formulas are chosen for exact float equality, not just closeness:
``maximum``/``minimum`` return the argument bitwise for equal doubles,
``where`` selects stored values untouched, additive identities
(``x + 0.0``) only ever apply to non-negative accumulators, and every
sequential accumulation (in-flight bytes, collective round times, wire
grants) folds in the same order as the scalar core.

Lane masking
------------

Lanes are masked *logically*, not arithmetically.  A lane that fails
the static capacity pre-check resolves zero costs and reports its
:class:`~repro.errors.OutOfMemoryError`; a lane whose capacity is
violated mid-run aborts at the first violating allocation **in replay
order** (exactly the scalar abort point — watermark levels are
structural, so the scan is a single array comparison) and resolves
lazy compute costs only up to and including the aborting compute.
Dead lanes ride the remaining lockstep arithmetic inertly — their
columns are never observed again — which keeps the hot loop free of
per-event mask branches; live lanes never stall on them.

Remaining scalar fallbacks go through :func:`execute_plan` unchanged,
and every fallback is *reason-coded* —
``singleton`` / ``narrow`` / ``zero-time`` / ``deadlock`` /
``structure-divergence`` (defensive; congruent batches cannot reach
it) — in :func:`repro.profiling.batching_stats`, with wall
time attributed per reason and contention-lane and grant-split counts,
so batch-coverage regressions are visible in ``--profile`` output.

Known divergence (pinned by ``tests/test_batched.py``
``TestDeadlockOutranksCapacity``): a *deadlocking* structure raises
:class:`~repro.errors.SchedulingError` for the whole batch (replayed
through the scalar core for the identical message) even if some lane's
capacity would have aborted with an OOM first under scalar execution.
Deadlock is a control-flow property covered by the congruence key — no
batch can contain one lane that deadlocks and another that does not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import profiling
from ..actions.lowering import (
    OP_BATCH,
    OP_COLL,
    OP_COMPUTE,
    OP_RECV,
    OP_SEND,
    ExecutablePlan,
)
from ..actions.ops import CollectiveKind
from ..config import RunConfig
from ..errors import ConfigError, OutOfMemoryError, SchedulingError
from .events import EventResult, _materialize, execute_plan
from .metrics import LaneFold, fold_events, fold_lanes

#: lockstep event kinds (first element of each event tuple)
_COMP = 0      # (_, cid, di, remote_slots)
_SEND = 1      # (_, sid, di)
_RECV = 2      # (_, rid, di)         blocking receive (prefetch off)
_POST = 3      # (_, bid, di)         batched group posts its sends
_WAIT = 4      # (_, bid, di)         batched group's blocking waits
_COLL = 5      # (_, lid, di)

_LOCKSTEP_ATTR = "_lockstep_schedule"
_CONGRUENCE_ATTR = "_congruence_key_cache"


@dataclass
class LockstepSchedule:
    """The structural replay of one plan, shared by every lane.

    Everything here is cost-independent: the global event sequence the
    greedy driver produces, the executed compute order, the posting
    order, and the full memory trace (deltas *and* watermark levels —
    they depend only on per-device program order).
    """

    events: list[tuple]
    exec_seq: list[int]
    #: computes grouped per device (ascending device id, program order
    #: within a device) — the order the lane fold sums busy time in
    dev_cids: list[list[int]]
    post_seq: list[int]
    send_batched: bytearray
    #: (di, cid, signed delta, level-after, is_alloc) in replay order
    mem_trace: list[tuple]
    #: per-allocation watermark levels / positions, for the OOM scan
    alloc_levels: np.ndarray
    alloc_pos: list[int]       # index into ``exec_seq`` of the alloc
    alloc_di: list[int]
    mem_peak: list[float]
    #: per collective id, whether it is a ``GRAD_SYNC`` ring — the ones
    #: the lane fold's sync accounting adds up
    coll_sync: bytes
    deadlock: bool
    #: False when a compiler invariant the vector step relies on does
    #: not hold (never for compiled programs; defensive)
    vectorizable: bool
    #: stacked cost matrices keyed by ``(lane ids, resolve extents)`` —
    #: reused when the same fully-resolved lane set executes again (see
    #: :func:`_stacked_costs`); a structure meets a few lane sets (one
    #: per wire group, say), so a few keyed entries are kept instead of
    #: one.  ``Lm`` (send latencies) is filled lazily, on the first
    #: contention execution of a set
    cost_rows: dict = field(default_factory=dict)
    #: memoized event-stream parity verdicts against other structural
    #: replays (congruent-group check); values hold a strong reference
    #: to the compared schedule so its ``id`` stays valid
    event_parity: dict = field(default_factory=dict)
    #: the contention driver's lookup tables per wire table
    #: (:class:`_ContentionTables`), derived on first use
    contention_tables: dict = field(default_factory=dict)


def _build_lockstep(plan: ExecutablePlan) -> LockstepSchedule:
    """Run the cost-blind greedy driver once, recording every event.

    Mirrors the fast driver in :func:`execute_plan` statement for
    statement, with times stripped out: blocking predicates are pure
    flag reads, so the produced order is the order every cost binding
    replays.
    """
    program = plan.program
    devices = plan.devices
    num_devices = len(devices)
    codes, args = plan.codes, plan.args
    dep_ptr, dep_remote, dep_idx = plan.dep_ptr, plan.dep_remote, plan.dep_idx
    comp_device = plan.comp_device
    comp_alloc, comp_free_b = plan.comp_alloc, plan.comp_free
    send_slot = plan.send_slot
    batch_send_ids, batch_recv_ids = plan.batch_send_ids, plan.batch_recv_ids
    recv_slot = plan.recv_slot
    prefetch = plan.prefetch
    tracked = program.tracks_memory

    cursors = [0] * num_devices
    comp_done = bytearray(plan.n_computes)
    posted = bytearray(plan.n_slots)
    batch_posted = bytearray(len(batch_send_ids))
    send_batched = bytearray(len(plan.send_src))
    events: list[tuple] = []
    exec_seq: list[int] = []
    post_seq: list[int] = []
    static = [program.static_bytes.get(d, 0.0) for d in devices]
    mem_level = list(static)
    mem_peak = list(static)
    mem_trace: list[tuple] = []
    alloc_levels: list[float] = []
    alloc_pos: list[int] = []
    alloc_di: list[int] = []
    vectorizable = True

    def step(di: int, i: int) -> bool:
        nonlocal vectorizable
        code = codes[di][i]
        a = args[di][i]
        if code == OP_COMPUTE:
            rslots: list[int] = []
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                x = dep_idx[e]
                if dep_remote[e]:
                    if prefetch:
                        if not posted[x]:
                            return False
                        rslots.append(x)
                else:
                    if not comp_done[x]:
                        return False
                    if comp_device[x] != di:
                        # a cross-device local edge would reintroduce a
                        # timing dependency on another device's compute
                        # ends; no compiler emits one, but refuse to
                        # vectorize rather than trust it
                        vectorizable = False
            comp_done[a] = 1
            events.append((_COMP, a, di, tuple(rslots)))
            exec_seq.append(a)
            if tracked:
                alloc = comp_alloc[a]
                if alloc:
                    level = mem_level[di] + alloc
                    mem_level[di] = level
                    mem_trace.append((di, a, alloc, level, True))
                    alloc_levels.append(level)
                    alloc_pos.append(len(exec_seq) - 1)
                    alloc_di.append(di)
                    if level > mem_peak[di]:
                        mem_peak[di] = level
                freed = comp_free_b[a]
                if freed:
                    level = mem_level[di] - freed
                    mem_level[di] = level
                    mem_trace.append((di, a, -freed, level, False))
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
                return True
            if not posted[recv_slot[a]]:
                return False
            events.append((_RECV, a, di))
            return True
        if code == OP_BATCH:
            if not batch_posted[a]:
                for sid in batch_send_ids[a]:
                    posted[send_slot[sid]] = 1
                    send_batched[sid] = 1
                    post_seq.append(sid)
                batch_posted[a] = 1
                events.append((_POST, a, di))
            if not prefetch:
                recvs = batch_recv_ids[a]
                for rid in recvs:
                    if not posted[recv_slot[rid]]:
                        return False
                events.append((_WAIT, a, di))
            return True
        return True  # OP_NOOP

    total = plan.n_actions
    done = 0
    deadlock = False
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
            deadlock = True
            break

    if tracked and not deadlock:
        for di in range(num_devices):
            drift = mem_level[di] - static[di]
            if abs(drift) > max(64.0, 1e-9 * mem_peak[di]):
                raise AssertionError(
                    f"activation leak on device {devices[di]}: "
                    f"{drift} bytes"
                )

    comp_ops = plan.comp_ops
    by_device: dict[int, list[int]] = {}
    for cid in exec_seq:
        by_device.setdefault(comp_ops[cid].device, []).append(cid)

    return LockstepSchedule(
        events=events,
        exec_seq=exec_seq,
        dev_cids=[cids for _dev, cids in sorted(by_device.items())],
        post_seq=post_seq,
        send_batched=send_batched,
        mem_trace=mem_trace,
        alloc_levels=np.array(alloc_levels, dtype=np.float64),
        alloc_pos=alloc_pos,
        alloc_di=alloc_di,
        mem_peak=mem_peak,
        coll_sync=bytes(op.kind is CollectiveKind.GRAD_SYNC
                        for op in plan.coll_ops),
        deadlock=deadlock,
        vectorizable=vectorizable,
    )


def lockstep_schedule(plan: ExecutablePlan) -> LockstepSchedule:
    """The (cached) structural replay for ``plan``'s program.

    Cached on the program object: every retime of one cached structure
    shares the same program, so a sweep pays the structural pass once
    per structure, not once per batch execution.
    """
    ls = getattr(plan.program, _LOCKSTEP_ATTR, None)
    if ls is None:
        ls = _build_lockstep(plan)
        try:
            setattr(plan.program, _LOCKSTEP_ATTR, ls)
        except AttributeError:  # pragma: no cover - Program is mutable
            pass
    return ls


def _events_match(head_ls: LockstepSchedule,
                  lane_ls: LockstepSchedule) -> bool:
    """Whether two structural replays recorded the same event stream.

    Congruent plans always do (the congruence key covers every array
    the structural pass reads); this is the defensive verification,
    memoized per schedule pair — the tuple comparison is C-speed but
    linear, and batches re-execute in tight loops.  Collective *kinds*
    sit outside the congruence key, and the lane fold sums gradient
    rings by the head's table, so they must agree too.
    """
    if head_ls is lane_ls:
        return True
    hit = head_ls.event_parity.get(id(lane_ls))
    if hit is not None and hit[0] is lane_ls:
        return hit[1]
    verdict = (head_ls.events == lane_ls.events
               and head_ls.coll_sync == lane_ls.coll_sync)
    head_ls.event_parity[id(lane_ls)] = (lane_ls, verdict)
    return verdict


@dataclass
class PlanBatch:
    """N cost-bound plans stacked over one shared control-flow structure."""

    plans: list[ExecutablePlan]
    #: per-lane capacity in bytes; ``None`` disarms enforcement
    capacities: list[int | None]

    @classmethod
    def from_plans(cls, plans, capacities=None) -> "PlanBatch":
        """Stack ``plans`` (all cost-bound, structurally congruent).

        Plans sharing a program object are accepted directly (retimes
        of one cached structure — the sweep path); otherwise equality
        of the content-hashed ``congruence_key`` is required — the
        control-flow hash that proves two structures replay the same
        event sequence (equal ``plan_key``, the plan cache's stronger
        oracle, implies it).

        A capacity list of the wrong arity is a caller bug, rejected
        with a structured :class:`~repro.errors.ConfigError` naming the
        offending lane indices.
        """
        plans = list(plans)
        if not plans:
            raise SchedulingError("PlanBatch: empty batch")
        head = plans[0]
        for plan in plans:
            if not plan.bound:
                raise SchedulingError(
                    f"{plan.name}: plan is not cost-bound; lower with "
                    "an oracle or call plan.retime(costs) first"
                )
            if plan.program is not head.program \
                    and plan.congruence_key != head.congruence_key:
                raise SchedulingError(
                    f"PlanBatch: {plan.name} does not share "
                    f"{head.name}'s control-flow structure "
                    "(congruence_key mismatch)"
                )
        if capacities is None:
            capacities = [None] * len(plans)
        capacities = list(capacities)
        if len(capacities) != len(plans):
            if len(capacities) < len(plans):
                offending = list(range(len(capacities), len(plans)))
                what = f"lanes {offending} have no capacity"
            else:
                offending = list(range(len(plans), len(capacities)))
                what = f"capacities {offending} name no lane"
            raise ConfigError(
                "PlanBatch: one capacity per lane required — "
                f"{len(capacities)} capacities for {len(plans)} lanes "
                f"({what})"
            )
        return cls(plans=plans, capacities=capacities)

    def __len__(self) -> int:
        return len(self.plans)


@dataclass
class BatchResult:
    """Per-lane outcomes of one batch execution, in lane order.

    Columnar: ``fold`` holds the lane-axis accounting (one row per
    lane — all the measurement layer reads) and ``errors[k]`` lane k's
    :class:`~repro.errors.OutOfMemoryError` or ``None``, mirroring the
    raise/return split of the scalar core (an aborted lane's fold row
    is meaningless).  Event objects are built only on request, by
    :meth:`lane`, from the retained ``[·, N]`` columns.
    """

    errors: list[OutOfMemoryError | None]
    fold: LaneFold
    #: per lane, the zero-argument builder of its :class:`EventResult`
    views: list

    def __len__(self) -> int:
        return len(self.errors)

    def lane(self, k: int) -> EventResult | None:
        """Lane ``k``'s :class:`EventResult` (``None`` if it aborted),
        bit-identical to a scalar :func:`execute_plan` of that lane."""
        return None if self.errors[k] is not None else self.views[k]()


def _merge(n_lanes: int, parts) -> BatchResult:
    """Scatter ``(lane ids, sub-result)`` parts into one lane-ordered
    result; a later part overwrites an earlier one's lanes."""
    if len(parts) == 1 and parts[0][0] == list(range(n_lanes)):
        return parts[0][1]
    out = BatchResult([None] * n_lanes, LaneFold.zeros(n_lanes),
                      [None] * n_lanes)
    for lane_ids, sub in parts:
        for column, sub_column in zip(out.fold, sub.fold):
            column[lane_ids] = sub_column
        for pos, k in enumerate(lane_ids):
            out.errors[k] = sub.errors[pos]
            out.views[k] = sub.views[pos]
    return out


def execute_batch(
    batch: PlanBatch,
    run: RunConfig | None = None,
) -> BatchResult:
    """Advance every lane of ``batch`` at once.

    Uncontended lanes replay the shared structural event sequence in
    lockstep; contention lanes run the time-aware greedy driver, whose
    cohorts split only where lanes disagree on a contended wire grant.
    """
    run = run or RunConfig()
    plans, caps_raw = batch.plans, batch.capacities
    head = plans[0]
    for plan, cap in zip(plans, caps_raw):
        if cap is not None and not plan.program.tracks_memory:
            raise SchedulingError(
                f"{plan.program.name}: capacity enforcement needs a "
                "resource-annotated program (compile with resources=...)"
            )
    ls = lockstep_schedule(head)
    if ls.deadlock:
        # Replay one lane through the scalar core for the identical
        # SchedulingError (heads + wait cycle); deadlock is structural,
        # so capacity is irrelevant to the verdict (see module doc).
        t0 = time.perf_counter()
        try:
            execute_plan(plans[0], run)
        finally:
            profiling.record_scalar(1, time.perf_counter() - t0,
                                    "deadlock")
        raise SchedulingError(  # pragma: no cover - scalar core raised
            f"{head.program.name}: simulation deadlock"
        )
    # Congruent groups: each distinct program contributes its own
    # structural replay (memory traces are per-lane); the event stream
    # must match the head's.
    n_lanes = len(plans)
    lane_lss = [ls] * n_lanes
    #: lanes left to the scalar core (defensive: compiled programs
    #: always vectorize, congruent plans always match)
    scalar_k = [] if ls.vectorizable else list(range(n_lanes))
    for k in range(1, n_lanes):
        plan = plans[k]
        if plan.program is head.program or not ls.vectorizable:
            continue
        lls = lockstep_schedule(plan)
        if not _events_match(ls, lls):  # pragma: no cover - defensive
            scalar_k.append(k)
            continue
        lane_lss[k] = lls

    def pick(group: list[int]) -> tuple:
        return (ls, [plans[k] for k in group],
                [lane_lss[k] for k in group],
                [caps_raw[k] for k in group])

    live = [k for k in range(n_lanes) if k not in scalar_k]
    parts: list[tuple[list[int], BatchResult]] = []
    if live and not run.contention:
        t0 = time.perf_counter()
        parts.append((live, _execute_lockstep(*pick(live))))
        profiling.record_batch(len(live), time.perf_counter() - t0)
    elif live:
        # The [N]-wide wire state requires every lane of one vectorized
        # pass to intern the same wires; the interning lives in
        # global-rank space, so lanes whose oracles map ranks
        # differently execute as separate wire-signature groups.
        for group in _wire_groups(plans, live):
            parts.append((group, _execute_contended(*pick(group), run)))
    for k in scalar_k:  # pragma: no cover - defensive
        parts.append(([k], _scalar_lane(plans[k], run, caps_raw[k],
                                        reason="structure-divergence")))
    return _merge(n_lanes, parts)


def _wire_groups(plans, live: list[int]) -> list[list[int]]:
    """Partition ``live`` lanes by wire signature, first-seen order.

    Two retimes of one structure intern equal wire tables whenever
    their oracles agree on the global-rank map; a lane that interned
    differently cannot share the ``[N]``-wide wire-state arrays, so it
    anchors its own group (wire interning happens at retime, so even
    plans sharing a program object must compare by content).
    """
    groups: list[list[int]] = []
    reps: list = []
    for k in live:
        plan = plans[k]
        for gi, rep in enumerate(reps):
            if (plan.n_wires == rep.n_wires
                    and plan.send_wire == rep.send_wire
                    and plan.coll_wires == rep.coll_wires):
                groups[gi].append(k)
                break
        else:
            reps.append(plan)
            groups.append([k])
    return groups


def _scalar_lane(plan, run, capacity_bytes, *, reason) -> BatchResult:
    """One lane through the scalar core, OOM captured, stats recorded.

    The fold is the N = 1 fold of the lean scalar result; the view
    re-executes at full detail, only if asked.
    """
    t0 = time.perf_counter()
    error = None
    fold = LaneFold.zeros(1)
    try:
        fold = fold_events(execute_plan(
            plan, run, capacity_bytes=capacity_bytes, detail="lean"))
    except OutOfMemoryError as exc:
        # kept past this frame: without its traceback, so it pins no
        # frame (and no caller's arrays) in a cycle until a full GC
        error = exc.with_traceback(None)
    finally:
        profiling.record_scalar(1, time.perf_counter() - t0, reason)
    return BatchResult([error], fold,
                       [partial(execute_plan, plan, run, capacity_bytes)])


#: narrowest contention group :func:`execute_many` vectorizes: the
#: wire-exact passes pay a fixed NumPy cost per event, and below this
#: they lose to the scalar core on every family (at 2 lanes, ~6x)
MIN_CONTENTION_LANES = 8

#: entries kept in the per-schedule stacked-cost cache; a structure's
#: steady state needs at most a handful of distinct lane sets (one per
#: wire group)
_COST_ROW_CACHE = 4


def _stacked_costs(ls: LockstepSchedule, plans, resolve_upto, *,
                   with_lat: bool):
    """Stack per-lane cost columns into ``[n, N]`` row lists.

    Resolves each lane's lazy compute costs for ``exec_seq`` up to its
    ``resolve_upto`` extent (the lazy-cost contract: an aborted lane
    resolves nothing beyond its aborting compute, a statically-rejected
    lane resolves nothing).  A repeated pass over the same bound plans
    (the cached-binding sweep steady state) produces the same matrices:
    once every lane's column is fully resolved the stacked rows are
    cached on the schedule, keyed by the exact lane set and replay
    extents.  ``Lm`` (send latencies) is filled lazily, on the first
    contention execution of a lane set.
    """
    exec_seq = ls.exec_seq
    mat_key = (tuple(id(p) for p in plans), tuple(resolve_upto))
    cached = ls.cost_rows.get(mat_key)
    if (cached is not None
            and all(getattr(p, "_fully_resolved", False) for p in plans)):
        Cm, Tm, Sm, Lm, pinned = cached
        if with_lat and Lm is None:
            Lm = list(np.ascontiguousarray(
                np.array([p.send_lat for p in plans],
                         dtype=np.float64).T))
            ls.cost_rows[mat_key] = (Cm, Tm, Sm, Lm, pinned)
        return Cm, Tm, Sm, Lm
    cols = []
    for k, plan in enumerate(plans):
        comp_cost = plan.comp_cost
        oracle = plan.costs
        comp_ops_k = plan.comp_ops
        for a in exec_seq[:resolve_upto[k]]:
            if comp_cost[a] is None:
                comp_cost[a] = oracle.duration(comp_ops_k[a])
        if resolve_upto[k] == len(exec_seq):
            plan._fully_resolved = True
        cols.append([0.0 if c is None else c for c in comp_cost])
    # row lists: plain list indexing per event beats ndarray row
    # slicing at sweep-typical lane counts
    Cm = list(np.ascontiguousarray(np.array(cols, dtype=np.float64).T))
    Tm = list(np.ascontiguousarray(
        np.array([p.send_time for p in plans], dtype=np.float64).T))
    Sm = list(np.ascontiguousarray(
        np.array([p.coll_step_time for p in plans], dtype=np.float64).T))
    Lm = None
    if with_lat:
        Lm = list(np.ascontiguousarray(
            np.array([p.send_lat for p in plans], dtype=np.float64).T))
    if all(getattr(p, "_fully_resolved", False) for p in plans):
        if len(ls.cost_rows) >= _COST_ROW_CACHE:
            ls.cost_rows.pop(next(iter(ls.cost_rows)))
        # the entry pins its plans: a PlanEntry may drop a bound plan
        # first, and a recycled ``id`` must not hit another plan's rows
        ls.cost_rows[mat_key] = (Cm, Tm, Sm, Lm, tuple(plans))
    return Cm, Tm, Sm, Lm


def _gate(plans, lane_lss, caps_raw):
    """Per-lane capacity verdicts, before a single event is timed.

    Returns ``(errors, resolve_upto, midrun)``: each lane's static
    pre-check :class:`~repro.errors.OutOfMemoryError` (or ``None``), the
    ``exec_seq`` extent its lazy costs may resolve to (nothing for a
    statically-rejected lane), and — for each lane whose capacity a
    later allocation violates — the index of its first violating
    allocation in structural order.
    """
    n_lanes = len(plans)
    errors: list[OutOfMemoryError | None] = [None] * n_lanes
    resolve_upto = [len(lane_lss[0].exec_seq)] * n_lanes
    midrun: dict[int, int] = {}
    for k, cap in enumerate(caps_raw):
        if cap is None:
            continue
        try:
            plans[k].program.check_static_memory(cap)
        except OutOfMemoryError as exc:
            errors[k] = exc
            resolve_upto[k] = 0
            continue
        levels = lane_lss[k].alloc_levels
        if len(levels):
            viol = levels > cap
            if viol.any():
                midrun[k] = int(np.argmax(viol))
    return errors, resolve_upto, midrun


def _execute_lockstep(ls: LockstepSchedule, plans, lane_lss,
                      caps_raw) -> BatchResult:
    """The timed pass over one structural replay (uncontended lanes).

    A lane whose capacity a later allocation violates aborts at its
    first violation in replay order — the scalar greedy driver's abort
    point — and resolves lazy costs only up to that compute.
    """
    head = plans[0]
    devices = head.devices
    num_devices = len(devices)
    n_lanes = len(plans)
    n_comp = head.n_computes
    send_slot = head.send_slot
    batch_send_ids, batch_recv_ids = head.batch_send_ids, head.batch_recv_ids
    recv_slot = head.recv_slot
    coll_active, coll_nsteps = head.coll_active, head.coll_nsteps
    coll_count, coll_blocking = head.coll_count, head.coll_blocking

    errors, resolve_upto, midrun = _gate(plans, lane_lss, caps_raw)
    for k, j in midrun.items():
        lane_ls = lane_lss[k]
        errors[k] = OutOfMemoryError(
            devices[lane_ls.alloc_di[j]], int(lane_ls.alloc_levels[j]),
            caps_raw[k])
        resolve_upto[k] = lane_ls.alloc_pos[j] + 1

    # -- per-lane cost columns -> [n, N] matrices ------------------------
    Cm, Tm, Sm, _ = _stacked_costs(ls, plans, resolve_upto, with_lat=False)

    # -- lane-axis state -------------------------------------------------
    zero = np.zeros(n_lanes)
    clock = [zero] * num_devices
    coll_free = [zero] * num_devices
    recv_wait = [zero] * num_devices
    # every record below is reference-assigned (each slot posts once,
    # each compute executes once, lane vectors are never mutated in
    # place); compute rows are stacked after the loop for fold and views
    ts_l: list = [None] * head.n_slots
    te_l: list = [None] * head.n_slots
    cs_l: list = [None] * n_comp
    ce_l: list = [None] * n_comp
    coll_log: list[tuple] = []

    maximum, minimum = np.maximum, np.minimum
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
                # scalar: only when arrival > ready, add
                # min(stall, in_flight); adding an exact 0.0 elsewhere
                # is bitwise neutral (the accumulator is never -0.0).
                # max(min(stall, in_flight), 0) is that select in one
                # ufunc: in_flight >= 0, so the min is the stall-capped
                # wait when stall > 0 and clamps to +0.0 otherwise
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
                    t = t + (count - 1.0) * round_time
                steps = tuple(step_log)
            coll_free[di] = t
            coll_log.append((lid, di, post, start, t, steps))
            if coll_blocking[lid]:
                clock[di] = t

    empty = np.empty((0, n_lanes))
    cols = _Columns(ls, plans, lane_lss,
                    np.array(cs_l) if cs_l else empty,
                    np.array(ce_l) if ce_l else empty,
                    clock, recv_wait, ts_l, te_l, coll_log)
    return BatchResult(errors, cols.fold(),
                       [partial(cols.lane, k) for k in range(n_lanes)])


@dataclass
class _Columns:
    """The ``[·, N]`` columns one vector pass retains.

    Nothing here is per lane: :meth:`fold` reduces on the lane axis and
    :meth:`lane` slices column ``k`` out, only then building that
    lane's event objects.  Matrices and lists of ``[N]`` row vectors
    are interchangeable (both index as ``rows[i][k]``).
    """

    ls: LockstepSchedule
    plans: list
    lane_lss: list
    CS: np.ndarray        # compute start / end, [computes, N]
    CE: np.ndarray
    clock: object         # per-device end clocks, [devices, N]
    recv_wait: object     # [devices, N]
    TS: object            # transfer start / end per slot, [slots, N]
    TE: object
    #: ``(lid, di, post, start, end, ring steps)`` of every collective
    #: in per-device program order; ``[N]`` vectors throughout
    colls: list

    def fold(self) -> LaneFold:
        sync = self.ls.coll_sync
        return fold_lanes(
            self.ls.dev_cids, self.CS, self.CE, self.clock,
            [(di, start, end)
             for lid, di, _post, start, end, _steps in self.colls
             if sync[lid]],
            np.array([max(lane_ls.mem_peak, default=0.0)
                      if plan.program.tracks_memory else 0.0
                      for plan, lane_ls in zip(self.plans, self.lane_lss)]),
        )

    def lane(self, k: int) -> EventResult:
        """Lane ``k`` of an uncontended pass: the wire grants a transfer
        the moment it is posted, and every log keeps structural order."""
        plan, lane_ls, ls = self.plans[k], self.lane_lss[k], self.ls
        cs = self.CS[:, k].tolist()
        ce = self.CE[:, k].tolist()
        ss = [float(self.TS[slot][k]) for slot in plan.send_slot]
        se = [float(self.TE[slot][k]) for slot in plan.send_slot]
        mem_k = [(di, cs[cid] if is_alloc else ce[cid], delta, level, cid)
                 for di, cid, delta, level, is_alloc in lane_ls.mem_trace]
        coll_k = [
            (lid, di, float(post[k]), float(start[k]), float(end[k]),
             tuple((float(s[k]), float(e[k])) for s, e in steps))
            for lid, di, post, start, end, steps in self.colls
        ]
        return _materialize(
            plan, ls.exec_seq, cs, ce, ls.post_seq, ss, ss, se,
            ls.send_batched, coll_k, mem_k,
            [float(row[k]) for row in self.clock],
            [float(row[k]) for row in self.recv_wait],
            lane_ls.mem_peak if plan.program.tracks_memory else None)


class _ContentionTables:
    """Lookup tables of the contention driver for one structure under
    one wire table, derived on first use and cached on the structural
    replay.

    ``comp_rslots[cid]`` lists a compute's remote slots in dependency
    order (the fold order of every arrival expression); ``slot_pos``
    locates each transfer slot's posting action — ``(device, index,
    batched group or -1)`` — so "posted" is a cursor comparison;
    ``rivals[d][i]`` lists, for wire action ``i`` of device ``d``, every
    other device touching one of its wires, with the index of that
    device's last such action.
    """

    __slots__ = ("comp_rslots", "slot_pos", "rivals")

    def __init__(self, plan: ExecutablePlan):
        dep_ptr = plan.dep_ptr
        dep_remote, dep_idx = plan.dep_remote, plan.dep_idx
        self.comp_rslots = [
            tuple(dep_idx[e] for e in range(dep_ptr[a], dep_ptr[a + 1])
                  if dep_remote[e])
            for a in range(plan.n_computes)]
        send_slot, send_wire = plan.send_slot, plan.send_wire
        slot_pos: list = [None] * plan.n_slots
        touches: list[dict[int, tuple]] = []
        last: list[dict[int, int]] = []
        for di, dev_codes in enumerate(plan.codes):
            dev_args = plan.args[di]
            touch: dict[int, tuple] = {}
            last_at: dict[int, int] = {}
            for i, code in enumerate(dev_codes):
                a = dev_args[i]
                if code == OP_SEND:
                    slot_pos[send_slot[a]] = (di, i, -1)
                    wires = (send_wire[a],)
                elif code == OP_BATCH:
                    sids = plan.batch_send_ids[a]
                    for sid in sids:
                        slot_pos[send_slot[sid]] = (di, i, a)
                    wires = tuple({send_wire[sid] for sid in sids})
                elif code == OP_COLL and plan.coll_active[a]:
                    wires = plan.coll_wires[a]
                else:
                    continue
                touch[i] = wires
                for w in wires:
                    last_at[w] = i
            touches.append(touch)
            last.append(last_at)
        self.slot_pos = slot_pos
        self.rivals = [
            {i: tuple((e, max(last[e][w] for w in wires if w in last[e]))
                      for e in range(len(last))
                      if e != di and any(w in last[e] for w in wires))
             for i, wires in touch.items()}
            for di, touch in enumerate(touches)]


class _Cohort:
    """Lanes sharing one structural state of the contention driver.

    The per-device cursors and the posted-group bits decide every
    blocking predicate, so one closure and one grant round serve every
    lane; only *times* differ, and those live in the group-global
    ``[*, N]`` arrays indexed by ``lanes``.
    """

    __slots__ = ("lanes", "cursors", "batch_posted", "done", "progress")

    def __init__(self, lanes, cursors, batch_posted, done, progress):
        self.lanes = lanes              # np.intp, ascending
        self.cursors = cursors          # per-device next action index
        self.batch_posted = batch_posted
        self.done = done                # actions fully executed
        self.progress = progress        # done + groups posted

    def split(self, lanes) -> "_Cohort":
        return _Cohort(lanes, list(self.cursors),
                       bytearray(self.batch_posted), self.done,
                       self.progress)


def _zero_time_transfers(plan: ExecutablePlan) -> bool:
    """Whether ``plan`` may hand a tensor over in zero time while it
    also contends for wires — the one case outside the contention
    driver's ordering argument (a zero-time hand-off can enable a wire
    action at the very instant of an earlier-enabled one, and the
    scalar driver's pick then follows enabling order, not device rank).
    Memoized on the bound plan.
    """
    hit = getattr(plan, "_zero_time", None)
    if hit is None:
        t, lat = plan.send_time, plan.send_lat
        hit = ((any(x > 0.0 for x in t) or any(plan.coll_active))
               and (any(x <= 0.0 for x in t)
                    # a batched follower pays max(t - latency, 0)
                    or any(t[sid] <= lat[sid]
                           for sids in plan.batch_send_ids
                           for sid in sids)))
        plan._zero_time = hit
    return hit


def _execute_contended(ls: LockstepSchedule, plans, lane_lss, caps_raw,
                       run: RunConfig) -> BatchResult:
    """The contention driver: greedy per device, exact per wire.

    Each cohort alternates a *closure* — every device advances through
    its non-wire actions, whose times depend only on already-final
    quantities — with a *grant round*: a parked wire action fires where
    no rival device can still reach one of its wires first (the rules in
    the module doc).  Actions ready in every lane fire together;
    otherwise the lowest ready device fires in the lanes where it is
    ready, which is the only way a cohort splits.

    Every fold row equals the fold of a scalar ``execute_plan(plan, run,
    capacity_bytes=cap)`` of that lane: each wire sees its grants in the
    scalar driver's order, and every expression folds in the scalar
    core's order.  A lane view re-runs its lane through the scalar core,
    whose comm and memory logs follow that driver's own pop order.
    """
    head = plans[0]
    num_devices = len(head.devices)
    n = len(plans)
    prefetch = head.prefetch
    codes, args = head.codes, head.args
    send_slot, send_wire = head.send_slot, head.send_wire
    batch_send_ids, batch_recv_ids = head.batch_send_ids, head.batch_recv_ids
    batch_exch = head.batch_exch
    recv_slot = head.recv_slot
    coll_active, coll_nsteps = head.coll_active, head.coll_nsteps
    coll_count, coll_blocking = head.coll_count, head.coll_blocking
    coll_wires_t = head.coll_wires

    # -- per-lane gating: static pre-check, lanes left to the scalar core
    errors, resolve_upto, midrun = _gate(plans, lane_lss, caps_raw)
    scalar = [k for k in range(n) if errors[k] is None
              and _zero_time_transfers(plans[k])]
    for k in scalar:
        resolve_upto[k] = 0
    # a lane that will abort runs to the end; only what precedes its
    # abort keeps a resolved cost
    midrun = [k for k in midrun if k not in scalar]
    for k in midrun:
        resolve_upto[k] = 0

    Cm, Tm, Sm, Lm = _stacked_costs(ls, plans, resolve_upto, with_lat=True)
    exec_seq = ls.exec_seq
    for k in midrun:
        # a lane with unresolved costs never hits the row cache, so its
        # column of these rows is this call's own
        plan = plans[k]
        comp_cost, oracle, comp_ops = plan.comp_cost, plan.costs, plan.comp_ops
        for a in exec_seq:
            c = comp_cost[a]
            Cm[a][k] = oracle.duration(comp_ops[a]) if c is None else c

    wire_key = (tuple(send_wire), coll_wires_t)
    tables = ls.contention_tables.get(wire_key)
    if tables is None:
        tables = ls.contention_tables[wire_key] = _ContentionTables(head)
    comp_rslots, slot_pos = tables.comp_rslots, tables.slot_pos
    rivals = tables.rivals

    # -- group-global timing state, [*, N] -------------------------------
    CLK = np.zeros((num_devices, n))
    CF = np.zeros((num_devices, n))     # per-device NIC cursors
    RW = np.zeros((num_devices, n))
    TS = np.zeros((head.n_slots, n))
    TE = np.zeros((head.n_slots, n))
    CS = np.zeros((head.n_computes, n))
    CE = np.zeros((head.n_computes, n))
    WF = np.zeros((head.n_wires, n))
    WE = np.full((head.n_wires, n), -1, dtype=np.int64)
    #: lid -> (device, post, start, end, [(step start, step end), ...])
    coll_recs: dict[int, tuple] = {}

    maximum, minimum, where = np.maximum, np.minimum, np.where
    # ufunc reductions: ``ndarray.any``/``all`` add a Python-level
    # wrapper per call, and the grant loop makes tens of thousands
    every, some = np.logical_and.reduce, np.logical_or.reduce

    # ``X`` indexes a cohort's lanes into the state arrays:
    # ``slice(None)`` when the cohort holds every lane (views, no
    # fancy-index copies), its lane array otherwise.  Every read of a
    # view is consumed before the row it views is written.

    def compute(a, di, rs, X):
        ready = CLK[di, X]
        if rs:
            r = rs[0]
            arrival = TE[r, X]
            in_flight = arrival - TS[r, X]
            for r in rs[1:]:
                te = TE[r, X]
                arrival = maximum(arrival, te)
                in_flight = in_flight + (te - TS[r, X])
            # the lockstep formula (see _execute_lockstep): the scalar
            # stall-vs-in-flight select in one ufunc, exact
            RW[di, X] = RW[di, X] + maximum(
                minimum(arrival - ready, in_flight), 0.0)
            start = maximum(ready, arrival)
        else:
            start = ready
        end = start + Cm[a][X]
        CS[a, X] = start
        CE[a, X] = end
        CLK[di, X] = end

    def recv(slot, di, X):
        s = TS[slot, X]
        duration = TE[slot, X] - s
        cl = CLK[di, X]
        CLK[di, X] = where(cl >= s, cl, s) + duration
        RW[di, X] = RW[di, X] + duration

    def transfer(sid, post, X, exch):
        """Post send ``sid`` at ``post``: the scalar wire arbitration,
        lane-wise (``exch`` is the batched exchange, -1 if unbatched)."""
        t = Tm[sid][X]
        tpos = t > 0.0
        if every(tpos):
            # every lane takes the wire: the selects below, unmasked
            w = send_wire[sid]
            wf = WF[w, X]
            busy = post < wf
            start = where(busy, wf, post)
            if exch >= 0:
                end = start + where(busy & (WE[w, X] == exch),
                                    maximum(t - Lm[sid][X], 0.0), t)
            else:
                end = start + t
            WF[w, X] = end
            WE[w, X] = exch
        elif some(tpos):
            w = send_wire[sid]
            wf = WF[w, X]
            we = WE[w, X]
            busy = tpos & (post < wf)
            start = where(busy, wf, post)
            if exch >= 0:
                # the opposing transfer of the *same* batched exchange
                # holds the wire: the follower pays bytes only, not a
                # second launch latency
                end = start + where(busy & (we == exch),
                                    maximum(t - Lm[sid][X], 0.0), t)
            else:
                end = start + t
            WF[w, X] = where(tpos, end, wf)
            WE[w, X] = where(tpos, exch, we)
        else:
            start = post
            end = post + t
        slot = send_slot[sid]
        TS[slot, X] = start
        TE[slot, X] = end

    def collective(lid, di, X):
        post = CLK[di, X]
        cf = CF[di, X]
        start = where(post >= cf, post, cf)
        t = start
        rec = coll_recs.get(lid)
        if rec is None:
            rec = (di, np.zeros(n), np.zeros(n), np.zeros(n), [])
            coll_recs[lid] = rec
        if coll_active[lid]:
            step_time = Sm[lid][X]
            wids = coll_wires_t[lid]
            steps = rec[4]
            round_time = None
            for si in range(coll_nsteps[lid]):
                step_start = t
                for w in wids:
                    step_start = maximum(step_start, WF[w, X])
                step_end = step_start + step_time
                if len(steps) <= si:
                    steps.append((np.zeros(n), np.zeros(n)))
                steps[si][0][X] = step_start
                steps[si][1][X] = step_end
                round_time = (step_time if round_time is None
                              else round_time + step_time)
                for w in wids:
                    WF[w, X] = step_end
                    WE[w, X] = -1
                t = step_end
            count = coll_count[lid]
            if count != 1.0:
                # remaining rounds repeat the first back-to-back; the
                # wires stay held for the whole run
                t = t + (count - 1.0) * round_time
                for w in wids:
                    WF[w, X] = t
        rec[1][X] = post
        rec[2][X] = start
        rec[3][X] = t
        CF[di, X] = t
        if coll_blocking[lid]:
            CLK[di, X] = t

    def close(co: _Cohort, X) -> list[int]:
        """Advance every device through its non-wire actions; return
        the devices parked at a wire action, ascending.

        One pass suffices: only wire actions post transfers, so nothing
        a closure executes can unblock another device.
        """
        cur, bp = co.cursors, co.batch_posted
        parked = []
        for di in range(num_devices):
            dev_codes, dev_args = codes[di], args[di]
            n_dev = len(dev_codes)
            i = i0 = cur[di]
            while i < n_dev:
                code = dev_codes[i]
                a = dev_args[i]
                if code == OP_COMPUTE:
                    # local deps precede on the device (the structural
                    # pass did not deadlock); prefetched remote ones
                    # must be posted
                    rs = comp_rslots[a] if prefetch else ()
                    blocked = False
                    for r in rs:
                        d, j, bid = slot_pos[r]
                        if cur[d] <= j and not (bid >= 0 and bp[bid]):
                            blocked = True
                            break
                    if blocked:
                        break
                    compute(a, di, rs, X)
                elif code == OP_SEND:
                    parked.append(di)
                    break
                elif code == OP_RECV:
                    if not prefetch:  # prefetched receives are free posts
                        slot = recv_slot[a]
                        d, j, bid = slot_pos[slot]
                        if cur[d] <= j and not (bid >= 0 and bp[bid]):
                            break
                        recv(slot, di, X)
                elif code == OP_BATCH:
                    if not bp[a]:
                        parked.append(di)
                        break
                    # posted, prefetch off (a prefetching group's post
                    # advanced its cursor): the group's blocking waits
                    slots = [recv_slot[rid] for rid in batch_recv_ids[a]]
                    blocked = False
                    for slot in slots:
                        d, j, bid = slot_pos[slot]
                        if cur[d] <= j and not (bid >= 0 and bp[bid]):
                            blocked = True
                            break
                    if blocked:
                        break
                    for slot in slots:
                        recv(slot, di, X)
                elif code == OP_COLL:
                    if coll_active[a]:
                        parked.append(di)
                        break
                    collective(a, di, X)
                i += 1  # OP_NOOP: flush/step; simulate_training charges it
            cur[di] = i
            co.done += i - i0
            co.progress += i - i0
        return parked

    def fire(co: _Cohort, di: int, X) -> None:
        """Execute device ``di``'s parked wire action lane-wise."""
        i = co.cursors[di]
        code = codes[di][i]
        a = args[di][i]
        if code == OP_SEND:
            transfer(a, CLK[di, X], X, -1)
        elif code == OP_COLL:
            collective(a, di, X)
        else:  # OP_BATCH posts its whole group; the waits are a closure's
            post = CLK[di, X]
            exch = batch_exch[a]
            for sid in batch_send_ids[a]:
                transfer(sid, post, X, exch)
            co.batch_posted[a] = 1
            co.progress += 1
            if not prefetch:
                return
        co.cursors[di] = i + 1
        co.done += 1
        co.progress += 1

    # -- the cohort loop -------------------------------------------------
    live = [k for k in range(n) if errors[k] is None and k not in scalar]
    total = head.n_actions
    pool: dict[tuple, _Cohort] = {}
    splits = 0

    def pool_add(co: _Cohort) -> None:
        key = (tuple(co.cursors), bytes(co.batch_posted))
        ex = pool.get(key)
        if ex is not None:
            ex.lanes = np.sort(np.concatenate((ex.lanes, co.lanes)))
        else:
            pool[key] = co

    t0 = time.perf_counter()
    if live:
        pool_add(_Cohort(np.array(live, dtype=np.intp), [0] * num_devices,
                         bytearray(len(batch_send_ids)), 0, 0))
    full_slice = slice(None)
    while pool:
        # the least-advanced cohort steps first: cohorts can only merge
        # at equal structural progress (the key fixes it), so keeping
        # the pool's progress spread tight maximizes re-convergence
        if len(pool) == 1:
            key, co = next(iter(pool.items()))
        else:
            key = co = best_p = None
            for k, c in pool.items():
                if best_p is None or c.progress < best_p:
                    key, co, best_p = k, c, c.progress
        del pool[key]
        L = co.lanes
        X = full_slice if len(L) == n else L
        parked = close(co, X)
        if co.done == total:
            continue
        if not parked:  # pragma: no cover - structurally impossible
            # blocking is flag-monotone, so any grant order completes
            # whenever the greedy structural pass did
            raise SchedulingError(f"{head.program.name}: simulation deadlock")
        cur = co.cursors
        taus = [CLK[di, X] for di in parked]
        tmin = taus[0]
        for tau in taus[1:]:
            tmin = minimum(tmin, tau)
        parked_at = {di: j for j, di in enumerate(parked)}
        ready: list[int] = []
        pick = None
        for j, di in enumerate(parked):
            tau = taus[j]
            ok = None
            for e, last in rivals[di][cur[di]]:
                if cur[e] > last:
                    continue  # e never touches these wires again
                je = parked_at.get(e)
                if je is not None:
                    # parked rival: the (time, device) order decides
                    c = tau <= taus[je] if di < e else tau < taus[je]
                else:
                    # blocked rival: it reaches the wires no earlier
                    # than its clock, and strictly after the earliest
                    # parked action (which alone can unblock it)
                    ck = CLK[e, X]
                    c = (tau <= tmin) | (
                        (tau <= ck) if di < e else (tau < ck))
                ok = c if ok is None else ok & c
            if ok is None or every(ok):
                ready.append(di)
            elif pick is None and some(ok):
                pick = (di, ok)
        if ready:
            # pairwise wire-disjoint (two actions on one wire cannot
            # both precede each other), so their order is immaterial
            for di in ready:
                fire(co, di, X)
            pool_add(co)
            continue
        # lanes disagree on a contended grant: split on it (each lane's
        # earliest parked action is always ready, so ``pick`` exists)
        di, ok = pick
        child = co.split(L[ok])
        fire(child, di, child.lanes)
        co.lanes = L[~ok]
        pool_add(child)
        pool_add(co)
        splits += 1
    if live:
        profiling.record_recovered(len(live), time.perf_counter() - t0,
                                   splits)

    # a lane whose capacity a later allocation violates aborts at the
    # first violation in the scalar driver's pop order: computes pop by
    # (start, device rank, program order) when hand-offs take positive
    # time, and only computes up to that one keep a resolved cost
    devices = head.devices
    comp_device = head.comp_device
    for k in midrun:
        lane_ls, plan, cap = lane_lss[k], plans[k], caps_raw[k]
        key = min(
            (CS[lane_ls.exec_seq[pos], k], di, pos, j)
            for j, (pos, di) in enumerate(zip(lane_ls.alloc_pos,
                                              lane_ls.alloc_di))
            if lane_ls.alloc_levels[j] > cap)
        j = key[3]
        errors[k] = OutOfMemoryError(devices[lane_ls.alloc_di[j]],
                                     int(lane_ls.alloc_levels[j]), cap)
        comp_cost = plan.comp_cost
        for pos, a in enumerate(exec_seq):
            if (comp_cost[a] is None
                    and (CS[a, k], comp_device[a], pos) <= key[:3]):
                comp_cost[a] = float(Cm[a][k])

    # every lane that ran ran every collective, so the records are
    # complete whenever any fold row will be read
    cols = _Columns(
        ls, plans, lane_lss, CS, CE, CLK, RW, TS, TE,
        [(ev[1], *coll_recs[ev[1]]) for ev in ls.events
         if ev[0] == _COLL and ev[1] in coll_recs])
    out = BatchResult(errors, cols.fold(),
                      [partial(execute_plan, plans[k], run, caps_raw[k])
                       for k in range(n)])
    if not scalar:
        return out
    return _merge(n, [(list(range(n)), out)] + [
        ([k], _scalar_lane(plans[k], run, caps_raw[k], reason="zero-time"))
        for k in scalar])


def _plan_congruence(plan: ExecutablePlan) -> str:
    """``plan.congruence_key``, memoized on the (shared) program object.

    Retimed plans are fresh dataclass instances, so the lazy per-plan
    cache alone would re-hash once per lane; every retime of one cached
    structure shares its program, which makes the program the natural
    memo site.
    """
    program = plan.program
    key = getattr(program, _CONGRUENCE_ATTR, None)
    if key is None:
        key = plan.congruence_key
        try:
            setattr(program, _CONGRUENCE_ATTR, key)
        except AttributeError:  # pragma: no cover - Program is mutable
            pass
    return key


def execute_many(
    items,
    run: RunConfig | None = None,
) -> BatchResult:
    """Execute ``(plan, capacity_bytes)`` pairs, batching where legal.

    Groups lanes by control-flow congruence (plans sharing a program
    object trivially agree; so do structurally congruent plans of
    *different* programs — see
    :attr:`~repro.actions.lowering.ExecutablePlan.congruence_key`),
    executes each multi-lane group through :func:`execute_batch` and
    everything else through the scalar core, and returns one columnar
    result in item order.  Only singleton groups (under contention,
    groups under :data:`MIN_CONTENTION_LANES`) take the reason-coded
    scalar path.
    """
    run = run or RunConfig()
    items = list(items)
    groups: dict[str, list[int]] = {}
    for idx, (plan, _) in enumerate(items):
        groups.setdefault(_plan_congruence(plan), []).append(idx)

    parts: list[tuple[list[int], BatchResult]] = []
    widest_scalar = MIN_CONTENTION_LANES - 1 if run.contention else 1
    for lane_ids in groups.values():
        if len(lane_ids) <= widest_scalar:
            reason = "singleton" if len(lane_ids) == 1 else "narrow"
            parts += [([i], _scalar_lane(items[i][0], run, items[i][1],
                                         reason=reason)) for i in lane_ids]
            continue
        sub = execute_batch(
            PlanBatch.from_plans([items[i][0] for i in lane_ids],
                                 [items[i][1] for i in lane_ids]),
            run)
        parts.append((lane_ids, sub))
    return _merge(len(items), parts)
