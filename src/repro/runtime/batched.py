"""Batched multi-plan execution: the lane axis over the event core.

One :class:`~repro.actions.lowering.ExecutablePlan` structure often
meets many cost bindings — the cost-only axes of a sweep (clusters,
capacities), placement candidates, what-if queries.  A
:class:`PlanBatch` stacks N cost-bound plans sharing one control-flow
structure and :func:`execute_batch` advances **all lanes at once**, one
NumPy array op per event instead of one Python step per event per lane.

Uncontended lanes replay their congruence class's one structural pass
(:func:`~repro.runtime.events.lockstep_schedule`) through the timed
pass of :mod:`repro.runtime.events` (:func:`~repro.runtime.events.replay`)
with every per-lane quantity held as an ``[N]`` float64 array: clocks,
collective/NIC frontiers, recv-wait accumulators, per-slot transfer
windows.  Two plans with equal structure execute the *identical* event
sequence whatever their cost columns say (the module doc of
:mod:`repro.runtime.events` gives the invariant), so nothing here is
per lane but the arithmetic.  A batch of one is exactly
:func:`~repro.runtime.events.execute_plan`'s own uncontended path, on
Python floats.

Congruence classes
------------------

Lanes need not share one ``plan_key``:
:attr:`~repro.actions.lowering.ExecutablePlan.congruence_key` hashes
exactly the arrays the structural pass reads (action streams,
dependency edges, transfer slots, exchange membership, collective step
structure and kinds), and plans with equal keys — same
family/P/B/prefetch but, say, recompute toggled, a different model or
micro-batch size, or retimed collective bucket sizes — stack into one
batch.  Equal keys mean one shared structure, so a batch replays that
one structure for every lane; only the memory trace
(:func:`~repro.runtime.events.memory_trace`) is per lane, since its
deltas are each program's own.

Contention: a time-aware greedy driver
--------------------------------------

``contention=True`` lanes stay in the batch too, through
:func:`_execute_contended`.  The scalar contention driver executes
heads in global *time* order, but only one piece of state depends on
that order: the per-wire arbitration (``wire_free`` / ``wire_exch``),
touched by *wire actions* — sends, batched-group posts and active
collectives.  Every other action times itself from already-final
quantities.  So the vector driver advances each device greedily through
its non-wire actions (a structural closure) and stops it at its next
wire action.  A parked wire action at time ``t`` on device ``a`` fires
once no other device can still reach one of its wires before it in the
scalar driver's ``(time, device)`` order:

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
identical** to, a scalar :func:`execute_plan` of that lane alone and the
reference interpreter — pinned by the generated corpus of
``tests/test_executor_oracle.py``, whose results must also hold the
invariants of ``tests/support/invariants.py``.  The array formulas aim
at exact float equality, not just closeness: ``maximum``/``minimum``
return the argument bitwise for equal doubles, ``where`` selects stored
values untouched, additive identities (``x + 0.0``) only ever apply to
non-negative accumulators, and every sequential accumulation
(in-flight bytes, collective round times, wire grants) folds in the
same order as the scalar core.

Lane masking
------------

Lanes are masked *logically*, not arithmetically.  A lane that fails
the static capacity pre-check reports its
:class:`~repro.errors.OutOfMemoryError`; an uncontended lane whose
capacity is violated mid-run aborts at the first violating allocation
**in replay order** (exactly the scalar abort point — watermark levels
are structural, so the scan reads the cached trace only).  Dead lanes
ride the remaining lockstep arithmetic inertly — their columns are
never observed again — which keeps the hot loop free of per-event mask
branches; live lanes never stall on them.

Only contention lanes take the scalar core, and every such lane is
*reason-coded* — ``narrow`` (a contention group under
:data:`MIN_CONTENTION_LANES` lanes, width 1 included) / ``zero-time``
— in :func:`repro.profiling.batching_stats`, with wall time attributed
per reason and contention-lane and grant-split counts, so
batch-coverage regressions are visible in ``--profile`` output.

Known divergence (pinned by ``tests/test_batched.py``
``TestDeadlockOutranksCapacity``; the oracle draws deadlocks uncapped):
a *deadlocking* structure raises :class:`~repro.errors.SchedulingError`
for a whole batch of two or more lanes, with the scalar core's message
for its first lane, even if some lane's capacity would have aborted
with an OOM first under scalar execution.  Deadlock is a control-flow
property covered by the congruence key — no batch can contain one lane
that deadlocks and another that does not.  A batch of one is
:func:`execute_plan`'s own path, so it keeps the scalar outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from .events import (
    _COLL,
    EventResult,
    LockstepSchedule,
    _deadlock,
    check_capacity,
    dev_rows,
    execute_plan,
    first_violation,
    lane_view,
    lockstep_schedule,
    memory_trace,
    replay,
    replay_alone,
    run_contended,
)
from .metrics import LaneFold, fold_lanes


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
    lockstep (a lone one on Python floats); contention lanes run the
    time-aware greedy driver, whose cohorts split only where lanes
    disagree on a contended wire grant.
    """
    run = run or RunConfig()
    plans, caps = batch.plans, batch.capacities
    head = plans[0]
    for plan, cap in zip(plans, caps):
        if not plan.program.tracks_memory:
            check_capacity(plan.program, cap)  # refuses any capacity
    n_lanes = len(plans)
    if n_lanes == 1 and not run.contention:
        t0 = time.perf_counter()
        out = _alone(head, caps[0])
        profiling.record_batch(1, time.perf_counter() - t0)
        return out
    # one structure for the whole congruence class; memory traces are
    # per program
    ls = lockstep_schedule(head)
    if ls.stall is not None:
        # deadlock is structural, so capacity is irrelevant to a
        # batch's verdict (see module doc)
        raise SchedulingError(_deadlock(head, *ls.stall))
    traces = [memory_trace(plan) for plan in plans]
    if not run.contention:
        t0 = time.perf_counter()
        out = _execute_lockstep(ls, plans, traces, caps)
        profiling.record_batch(n_lanes, time.perf_counter() - t0)
        return out
    # The [N]-wide wire state requires every lane of one vectorized
    # pass to intern the same wires; the interning lives in global-rank
    # space, so lanes whose oracles map ranks differently execute as
    # separate wire-signature groups.
    return _merge(n_lanes, [
        (group, _execute_contended(ls, [plans[k] for k in group],
                                   [traces[k] for k in group],
                                   [caps[k] for k in group], run))
        for group in _wire_groups(plans, range(n_lanes))])


def _wire_groups(plans, live: list[int]) -> list[list[int]]:
    """Partition ``live`` lanes by wire signature, first-seen order.

    Two retimes of one structure intern equal wire tables whenever
    their oracles agree on the global-rank map; a lane that interned
    differently cannot share the ``[N]``-wide wire-state arrays, so it
    anchors its own group (wire interning happens at retime, so even
    plans sharing a program object must compare by content).
    """
    groups: dict[tuple, list[int]] = {}
    for k in live:
        wires = (tuple(plans[k].send_wire), plans[k].coll_wires)
        groups.setdefault(wires, []).append(k)
    return list(groups.values())


def _alone(plan: ExecutablePlan, capacity_bytes) -> BatchResult:
    """An uncontended batch of one: :func:`execute_plan`'s own path,
    folded through :func:`~.metrics.fold_lanes`' float path."""
    try:
        ls, trace, timing = replay_alone(plan, capacity_bytes)
    except OutOfMemoryError as exc:
        # kept past this frame: without its traceback, so it pins no
        # frame (and no caller's arrays) in a cycle until a full GC
        return BatchResult([exc.with_traceback(None)], LaneFold.zeros(1),
                           [None])
    cs, ce, clock, recv_wait, ts, te, colls = timing
    fold = _Columns(ls, [plan], [trace], cs, ce, clock, recv_wait, ts, te,
                    colls).fold()
    return BatchResult([None], fold,
                       [partial(lane_view, plan, ls, trace, *timing)])


def _scalar_lane(plan, run, capacity_bytes, *, reason) -> BatchResult:
    """One contention lane through the scalar time-ordered driver, OOM
    captured, stats recorded.

    The fold is the driver's own arrays folded as one lane of floats;
    the view re-executes through :func:`execute_plan`, only if asked.
    """
    t0 = time.perf_counter()
    error = None
    fold = LaneFold.zeros(1)
    try:
        out = run_contended(plan, capacity_bytes)
        coll_ops = plan.coll_ops
        fold = fold_lanes(
            dev_rows(plan, out.exec_seq), out.comp_start, out.comp_end,
            out.clock,
            [(di, start, end) for lid, di, _post, start, end, _steps
             in out.coll_log
             if coll_ops[lid].kind is CollectiveKind.GRAD_SYNC],
            np.array([max(out.mem_peak or (), default=0.0)]))
    except OutOfMemoryError as exc:
        error = exc.with_traceback(None)  # see _alone
    finally:
        profiling.record_scalar(1, time.perf_counter() - t0, reason)
    return BatchResult([error], fold,
                       [partial(execute_plan, plan, run, capacity_bytes)])


#: narrowest contention group :func:`execute_many` vectorizes: the
#: contention driver pays a fixed NumPy cost per event; against the
#: scalar driver it breaks even at about 6 lanes for gpipe, 10 for
#: chimera-wave, 12-16 for dapple and above 16 for hanayo (2.5-10x the
#: scalar cost at 2 lanes; table in docs/performance.md)
MIN_CONTENTION_LANES = 8

#: entries kept in the per-structure stacked-cost cache; a cached-binding
#: grid's steady state needs at most a handful of distinct lane sets (one
#: per wire group), while a daemon's coalesced batches seldom repeat one
#: (docs/performance.md), so more entries would only hold memory
_COST_ROW_CACHE = 4


def _rows(columns) -> list:
    """Per-lane columns -> ``[n, N]`` row list: plain list indexing per
    event beats ndarray row slicing at sweep-typical lane counts."""
    return list(np.ascontiguousarray(
        np.array(columns, dtype=np.float64).T))


def _stacked_costs(ls: LockstepSchedule, plans, *, cache: bool,
                   with_lat: bool):
    """Stack per-lane cost columns into ``[n, N]`` row lists.

    A repeated pass over the same bound plans (the cached-binding sweep
    steady state) produces the same matrices, so they are kept on the
    schedule, keyed by the exact lane set — admitted only when
    ``cache``: every lane of the pass runs to completion.  ``Lm`` (send
    latencies) is filled on the first contention execution of a set.
    """
    key = tuple(id(p) for p in plans)
    cached = ls.cost_rows.get(key)
    if cached is not None:
        Cm, Tm, Sm, Lm, pinned = cached
        if with_lat and Lm is None:
            Lm = _rows([p.send_lat for p in plans])
            ls.cost_rows[key] = (Cm, Tm, Sm, Lm, pinned)
        return Cm, Tm, Sm, Lm
    Cm = _rows([p.comp_cost for p in plans])
    Tm = _rows([p.send_time for p in plans])
    Sm = _rows([p.coll_step_time for p in plans])
    Lm = _rows([p.send_lat for p in plans]) if with_lat else None
    if cache:
        if len(ls.cost_rows) >= _COST_ROW_CACHE:
            ls.cost_rows.pop(next(iter(ls.cost_rows)))
        # the entry pins its plans: a PlanEntry may drop a bound plan
        # first, and a recycled ``id`` must not hit another plan's rows
        ls.cost_rows[key] = (Cm, Tm, Sm, Lm, tuple(plans))
    return Cm, Tm, Sm, Lm


def _gate(plans, traces, caps):
    """Per-lane capacity verdicts, before a single event is timed.

    Returns ``(errors, midrun)``: each lane's static pre-check
    :class:`~repro.errors.OutOfMemoryError` (or ``None``), and — for
    each lane whose capacity a later allocation violates — the index of
    its first violating allocation in structural order.
    """
    errors: list[OutOfMemoryError | None] = [None] * len(plans)
    midrun: dict[int, int] = {}
    for k, cap in enumerate(caps):
        if cap is None:
            continue
        try:
            plans[k].program.check_static_memory(cap)
        except OutOfMemoryError as exc:
            errors[k] = exc.with_traceback(None)  # see _alone
            continue
        j = first_violation(traces[k], cap)
        if j is not None:
            midrun[k] = j
    return errors, midrun


def _execute_lockstep(ls: LockstepSchedule, plans, traces,
                      caps) -> BatchResult:
    """The timed pass over one structural replay (uncontended lanes).

    A lane whose capacity a later allocation violates aborts at its
    first violation in replay order — the scalar abort point.
    """
    head = plans[0]
    n_lanes = len(plans)
    errors, midrun = _gate(plans, traces, caps)
    for k, j in midrun.items():
        trace = traces[k]
        errors[k] = OutOfMemoryError(
            head.devices[trace.alloc_di[j]], int(trace.alloc_levels[j]),
            caps[k])
    Cm, Tm, Sm, _ = _stacked_costs(
        ls, plans, cache=all(e is None for e in errors), with_lat=False)
    cs, ce, clock, recv_wait, ts, te, colls = replay(
        ls, head, Cm, Tm, Sm, np.maximum, np.minimum, np.zeros(n_lanes))
    empty = np.empty((0, n_lanes))
    cols = _Columns(ls, plans, traces,
                    np.array(cs) if cs else empty,
                    np.array(ce) if ce else empty,
                    clock, recv_wait, ts, te, colls)
    return BatchResult(errors, cols.fold(),
                       [partial(cols.lane, k) for k in range(n_lanes)])


@dataclass
class _Columns:
    """The ``[·, N]`` columns one vector pass retains.

    Nothing here is per lane: :meth:`fold` reduces on the lane axis and
    :meth:`lane` slices column ``k`` out, only then building that
    lane's event objects.  Matrices and lists of ``[N]`` row vectors
    are interchangeable (both index as ``rows[i][k]``); a batch of one
    holds plain floats instead (``CS`` a list), which :meth:`fold`
    takes as well.
    """

    ls: LockstepSchedule
    plans: list
    traces: list          # per lane, its program's memory trace
    CS: np.ndarray | list  # compute start / end, [computes, N]
    CE: np.ndarray | list
    clock: object         # per-device end clocks, [devices, N]
    #: [devices, N]; ``None`` from the contention driver, whose lane
    #: views re-execute (:meth:`lane` serves uncontended passes only)
    recv_wait: object
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
            np.array([max(trace.mem_peak, default=0.0)
                      if plan.program.tracks_memory else 0.0
                      for plan, trace in zip(self.plans, self.traces)]),
        )

    def lane(self, k: int) -> EventResult:
        """Lane ``k`` of an uncontended pass (see
        :func:`~repro.runtime.events.lane_view`)."""
        return lane_view(self.plans[k], self.ls, self.traces[k],
                         self.CS[:, k].tolist(), self.CE[:, k].tolist(),
                         self.clock, self.recv_wait, self.TS, self.TE,
                         self.colls, at=lambda x: float(x[k]))


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


def _execute_contended(ls: LockstepSchedule, plans, traces, caps,
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
    errors, midrun = _gate(plans, traces, caps)
    scalar = [k for k in range(n) if errors[k] is None
              and _zero_time_transfers(plans[k])]
    # a lane that will abort runs to the end, then is charged its abort
    midrun = [k for k in midrun if k not in scalar]
    Cm, Tm, Sm, Lm = _stacked_costs(
        ls, plans, with_lat=True,
        cache=not scalar and not midrun and all(e is None for e in errors))

    wire_key = (tuple(send_wire), coll_wires_t)
    tables = ls.contention_tables.get(wire_key)
    if tables is None:
        tables = ls.contention_tables[wire_key] = _ContentionTables(head)
    comp_rslots, slot_pos = tables.comp_rslots, tables.slot_pos
    rivals = tables.rivals

    # -- group-global timing state, [*, N] -------------------------------
    CLK = np.zeros((num_devices, n))
    CF = np.zeros((num_devices, n))     # per-device NIC cursors
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
            arrival = TE[rs[0], X]
            for r in rs[1:]:
                arrival = maximum(arrival, TE[r, X])
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
    # time
    for k in midrun:
        trace, cap = traces[k], caps[k]
        _, _, _, j = min(
            (CS[ls.exec_seq[pos], k], di, pos, j)
            for j, (pos, di) in enumerate(zip(trace.alloc_pos,
                                              trace.alloc_di))
            if trace.alloc_levels[j] > cap)
        errors[k] = OutOfMemoryError(head.devices[trace.alloc_di[j]],
                                     int(trace.alloc_levels[j]), cap)

    # every lane that ran ran every collective, so the records are
    # complete whenever any fold row will be read
    cols = _Columns(
        ls, plans, traces, CS, CE, CLK, None, TS, TE,
        [(ev[1], *coll_recs[ev[1]]) for ev in ls.events
         if ev[0] == _COLL and ev[1] in coll_recs])
    out = BatchResult(errors, cols.fold(),
                      [partial(execute_plan, plans[k], run, caps[k])
                       for k in range(n)])
    if not scalar:
        return out
    return _merge(n, [(list(range(n)), out)] + [
        ([k], _scalar_lane(plans[k], run, caps[k], reason="zero-time"))
        for k in scalar])


def execute_many(
    items,
    run: RunConfig | None = None,
) -> BatchResult:
    """Execute ``(plan, capacity_bytes)`` pairs, batching where legal.

    Groups lanes by control-flow congruence (plans sharing a program
    object trivially agree; so do structurally congruent plans of
    *different* programs — see
    :attr:`~repro.actions.lowering.ExecutablePlan.congruence_key`),
    executes each group through :func:`execute_batch` — an uncontended
    group of one included, which times in plain floats — and returns
    one columnar result in item order.  Only contention groups under
    :data:`MIN_CONTENTION_LANES` lanes, width 1 included, take the
    scalar core (reason ``narrow``).
    """
    run = run or RunConfig()
    items = list(items)
    groups: dict[str, list[int]] = {}
    for idx, (plan, _) in enumerate(items):
        groups.setdefault(lockstep_schedule(plan).key, []).append(idx)

    parts: list[tuple[list[int], BatchResult]] = []
    for lane_ids in groups.values():
        if run.contention and len(lane_ids) < MIN_CONTENTION_LANES:
            parts += [([i], _scalar_lane(items[i][0], run, items[i][1],
                                         reason="narrow")) for i in lane_ids]
            continue
        sub = execute_batch(
            PlanBatch.from_plans([items[i][0] for i in lane_ids],
                                 [items[i][1] for i in lane_ids]),
            run)
        parts.append((lane_ids, sub))
    return _merge(len(items), parts)
