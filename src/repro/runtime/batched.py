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

Vectorized contention
---------------------

``contention=True`` lanes stay in the batch.  The per-link arbitration
state of the scalar core (``wire_free`` / ``wire_exch``) is lifted to
``[N]``-wide arrays and the batched-P2P latency-sharing arithmetic
becomes masked selects, so the exact scalar formulas run once per wire
touch for all lanes.  The scalar contention driver executes actions in
global *time* order while the lockstep replay is structural, so
batches run the cheap lockstep pass first and check each lane as it
runs: per wire, the action times must be nondecreasing with equal-time
ties only between actions of one device (whose relative order both
drivers preserve).  A lane passing that check computes the time-ordered
driver's fixpoint exactly.

Time-ordered vector replay
--------------------------

Lanes the witness flags — wire-grant orders that leave structural
order, e.g. hanayo-style wave interleavings on shared-link topologies —
are *recovered* by :func:`_execute_time_ordered` (as is a lockstep
contention lane asked for its event view, whose ``comm``/``mem_events``
logs interleave in driver order): a vectorized twin of the scalar
contention driver itself.  Per-lane event cursors advance through the
plan in each lane's own grant-time order; lanes sharing a structural
state — the cursor tuple plus the posted-group bits, which determine
every blocking predicate — form a **cohort**, and each pop evaluates
the scalar driver's exact ``peek``/``step`` expressions lane-wise as
one NumPy op per device over the cohort.  A cohort whose lanes choose
different devices splits; cohorts whose states re-converge merge, so
sibling lanes that diverge only transiently keep amortizing.  Mid-run
capacity aborts stay in-batch too: watermark levels are structural, so
a violating allocation kills exactly the lanes it would kill under the
scalar driver, at the same pop, with the same attribution.  Lanes whose
oracles intern different wire tables batch per wire-signature group
instead of falling back.

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
``singleton`` / ``narrow`` / ``deadlock`` /
``structure-divergence`` (defensive; congruent batches cannot reach it) — in
:func:`repro.profiling.batching_stats`, with wall time attributed per
reason and recovered-lane counts for the time-ordered replay, so
batch-coverage regressions are visible in ``--profile`` output.

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
    #: :func:`_stacked_costs`); a congruence group typically alternates
    #: between its lockstep set and its time-ordered redo set, so a few
    #: keyed entries are kept instead of one.  ``Lm`` (send latencies)
    #: is filled lazily, on the first contention execution of a set
    cost_rows: dict = field(default_factory=dict)
    #: memoized event-stream parity verdicts against other structural
    #: replays (congruent-group check); values hold a strong reference
    #: to the compared schedule so its ``id`` stays valid
    event_parity: dict = field(default_factory=dict)
    #: cost-independent lookup tables of the time-ordered driver,
    #: derived once per program on its first recovered execution
    time_tables: "object | None" = None


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
    """Advance every lane of ``batch`` in lockstep.

    Contention batches run the cheap lockstep pass first and recover
    witness-flagged lanes through the time-ordered vector replay — no
    lane leaves the batch either way.
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
                [caps_raw[k] for k in group], run)

    live = [k for k in range(n_lanes) if k not in scalar_k]
    parts: list[tuple[list[int], BatchResult]] = []
    if live and not run.contention:
        t0 = time.perf_counter()
        sub, _redo = _execute_lockstep(*pick(live))
        profiling.record_batch(len(live), time.perf_counter() - t0)
        parts.append((live, sub))
    elif live:
        # The [N]-wide wire state requires every lane of one vectorized
        # pass to intern the same wires; the interning lives in
        # global-rank space, so lanes whose oracles map ranks
        # differently execute as separate wire-signature groups.
        for group in _wire_groups(plans, live):
            t0 = time.perf_counter()
            sub, redo = _execute_lockstep(*pick(group))
            lanes_kept = len(group) - len(redo)
            if lanes_kept:
                profiling.record_batch(lanes_kept,
                                       time.perf_counter() - t0)
            parts.append((group, sub))
            if redo:
                # per-lane wire-grant orders that left structural order,
                # or mid-run OOMs whose abort attribution is
                # driver-dependent: recovered in each lane's own time
                # order instead of replayed scalar (overwriting the
                # lockstep pass's garbage rows for those lanes)
                again = [group[pos] for pos in sorted(redo)]
                t0 = time.perf_counter()
                sub = _execute_time_ordered(*pick(again))
                profiling.record_recovered(len(again),
                                           time.perf_counter() - t0)
                parts.append((again, sub))
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
        error = exc
    finally:
        profiling.record_scalar(1, time.perf_counter() - t0, reason)
    return BatchResult([error], fold,
                       [partial(execute_plan, plan, run, capacity_bytes)])


#: narrowest contention group :func:`execute_many` vectorizes: the
#: wire-exact passes pay a fixed NumPy cost per event, and below this
#: they lose to the scalar core on every family (at 2 lanes, ~6x)
MIN_CONTENTION_LANES = 8

#: entries kept in the per-schedule stacked-cost cache; a structure's
#: steady state needs at most a handful of distinct lane sets (the
#: lockstep set plus its time-ordered redo set per wire group)
_COST_ROW_CACHE = 4


def _stacked_costs(ls: LockstepSchedule, plans, resolve_upto, *,
                   with_lat: bool, mutable: bool = False):
    """Stack per-lane cost columns into ``[n, N]`` row lists.

    Resolves each lane's lazy compute costs for ``exec_seq`` up to its
    ``resolve_upto`` extent (the lazy-cost contract: an aborted lane
    resolves nothing beyond its aborting compute, a statically-rejected
    lane resolves nothing).  A repeated pass over the same bound plans
    (the cached-binding sweep steady state) produces the same matrices:
    once every lane's column is fully resolved the stacked rows are
    cached on the schedule, keyed by the exact lane set and replay
    extents.  ``Lm`` (send latencies) is filled lazily, on the first
    contention execution of a lane set.  ``mutable=True`` bypasses the
    cache both ways — the time-ordered driver fills mid-run-aborting
    lanes' cells in place as it pops, which must never touch shared
    rows.
    """
    exec_seq = ls.exec_seq
    mat_key = (tuple(id(p) for p in plans), tuple(resolve_upto))
    cached = None if mutable else ls.cost_rows.get(mat_key)
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
    if (not mutable
            and all(getattr(p, "_fully_resolved", False) for p in plans)):
        if len(ls.cost_rows) >= _COST_ROW_CACHE:
            ls.cost_rows.pop(next(iter(ls.cost_rows)))
        # the entry pins its plans: a PlanEntry may drop a bound plan
        # first, and a recycled ``id`` must not hit another plan's rows
        ls.cost_rows[mat_key] = (Cm, Tm, Sm, Lm, tuple(plans))
    return Cm, Tm, Sm, Lm


def _execute_lockstep(ls: LockstepSchedule, plans, lane_lss, caps_raw,
                      run: RunConfig) -> tuple[BatchResult, set[int]]:
    """The timed pass over one structural replay.

    Returns the per-lane outcomes plus the set of lane positions that
    must be *redone* through the time-ordered vector replay (contention
    lanes whose wire-grant order diverged from the time-ordered driver,
    or whose capacity aborts mid-run under contention) — their columns
    and fold rows here are garbage.
    """
    head = plans[0]
    devices = head.devices
    num_devices = len(devices)
    n_lanes = len(plans)
    contention = run.contention
    n_comp = head.n_computes
    exec_seq = ls.exec_seq
    send_slot = head.send_slot
    batch_send_ids, batch_recv_ids = head.batch_send_ids, head.batch_recv_ids
    batch_exch = head.batch_exch
    recv_slot = head.recv_slot
    coll_active, coll_nsteps = head.coll_active, head.coll_nsteps
    coll_count, coll_blocking = head.coll_count, head.coll_blocking
    send_wire, coll_wires_t = head.send_wire, head.coll_wires

    # -- per-lane gating: static pre-check, then the OOM scan ------------
    errors: list[OutOfMemoryError | None] = [None] * n_lanes
    redo: set[int] = set()
    #: computes (as exec_seq positions) each lane actually reaches;
    #: the lazy-cost contract: an aborted lane resolves nothing beyond
    #: its aborting compute, a statically-rejected lane resolves nothing
    resolve_upto = [len(exec_seq)] * n_lanes
    for k, cap in enumerate(caps_raw):
        if cap is None:
            continue
        try:
            plans[k].program.check_static_memory(cap)
        except OutOfMemoryError as exc:
            errors[k] = exc
            resolve_upto[k] = 0
    for k, cap in enumerate(caps_raw):
        if cap is None or errors[k] is not None:
            continue
        lane_ls = lane_lss[k]
        if not len(lane_ls.alloc_levels):
            continue
        viol = lane_ls.alloc_levels > cap
        if viol.any():
            if contention:
                # mid-run abort attribution (device / peak) follows the
                # driver's replay order; redo the lane scalar
                redo.add(k)
                resolve_upto[k] = 0
                continue
            j = int(np.argmax(viol))
            errors[k] = OutOfMemoryError(
                devices[lane_ls.alloc_di[j]],
                int(lane_ls.alloc_levels[j]), cap)
            resolve_upto[k] = lane_ls.alloc_pos[j] + 1

    # -- per-lane cost columns -> [n, N] matrices ------------------------
    Cm, Tm, Sm, Lm = _stacked_costs(ls, plans, resolve_upto,
                                    with_lat=contention)

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
    where = np.where
    if contention:
        # [N]-wide mirrors of the scalar wire-arbitration state, plus
        # the per-wire driver-order witness: the last action time and
        # device that touched each wire, per lane.  A lane observing a
        # time inversion (or an equal-time tie across devices) computes
        # a grant order the time-ordered scalar driver may not produce
        # and is flagged for scalar replay.
        neg1 = np.full(n_lanes, -1)
        neg_inf = np.full(n_lanes, -np.inf)
        wire_free = [zero] * head.n_wires
        wire_exch = [neg1] * head.n_wires
        wire_last_t = [neg_inf] * head.n_wires
        wire_last_di = [neg1] * head.n_wires
        diverged = np.zeros(n_lanes, dtype=bool)

        def wire_mark(w, tarr, di, applies):
            lt = wire_last_t[w]
            ld = wire_last_di[w]
            diverged.__ior__(
                applies & ((tarr < lt) | ((tarr == lt) & (ld != di))))
            wire_last_t[w] = where(applies, tarr, lt)
            wire_last_di[w] = where(applies, di, ld)

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
            t = Tm[sid]
            if contention and (t > 0.0).any():
                tpos = t > 0.0
                w = send_wire[sid]
                wire_mark(w, post, di, tpos)
                wf = wire_free[w]
                busy = tpos & (post < wf)
                start = where(busy, wf, post)
                end = start + t
                wire_free[w] = where(tpos, end, wf)
                wire_exch[w] = where(tpos, neg1, wire_exch[w])
            else:
                start = post
                end = post + t
            slot = send_slot[sid]
            ts_l[slot] = start
            te_l[slot] = end
        elif kind == _POST:
            _, bid, di = ev
            post = clock[di]
            exch = batch_exch[bid]
            for sid in batch_send_ids[bid]:
                t = Tm[sid]
                if contention and (t > 0.0).any():
                    tpos = t > 0.0
                    w = send_wire[sid]
                    wire_mark(w, post, di, tpos)
                    wf = wire_free[w]
                    we = wire_exch[w]
                    busy = tpos & (post < wf)
                    start = where(busy, wf, post)
                    # the opposing transfer of the *same* batched
                    # exchange holds the wire: the follower pays bytes
                    # only, not a second launch latency
                    dur = where(busy & (we == exch),
                                maximum(t - Lm[sid], 0.0), t)
                    end = start + dur
                    wire_free[w] = where(tpos, end, wf)
                    wire_exch[w] = where(tpos, exch, we)
                else:
                    start = post
                    end = post + t
                slot = send_slot[sid]
                ts_l[slot] = start
                te_l[slot] = end
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
                if contention:
                    wids = coll_wires_t[lid]
                    for w in wids:
                        wire_mark(w, post, di, True)
                    for _ in range(coll_nsteps[lid]):
                        step_start = t
                        for w in wids:
                            step_start = maximum(step_start, wire_free[w])
                        step_end = step_start + step_time
                        step_log.append((step_start, step_end))
                        round_time = (step_time if round_time is None
                                      else round_time + step_time)
                        for w in wids:
                            wire_free[w] = step_end
                            wire_exch[w] = neg1
                        t = step_end
                    count = coll_count[lid]
                    if count != 1.0:
                        t = t + (count - 1.0) * round_time
                        for w in wids:
                            wire_free[w] = t
                else:
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

    if contention and diverged.any():
        redo.update(int(k) for k in np.nonzero(diverged)[0])

    empty = np.empty((0, n_lanes))
    cols = _Columns(ls, plans, lane_lss,
                    np.array(cs_l) if cs_l else empty,
                    np.array(ce_l) if ce_l else empty,
                    clock, recv_wait, ts_l, te_l, coll_log)
    if contention:
        # comm and memory logs follow the time-ordered driver's pop
        # order, which this pass never ran: a view replays its lane there
        views = [partial(_replay_lane, ls, plans[k], lane_lss[k],
                         caps_raw[k], run) for k in range(n_lanes)]
    else:
        views = [partial(cols.lane, k) for k in range(n_lanes)]
    return BatchResult(errors, cols.fold(), views), redo


def _replay_lane(ls, plan, lane_ls, cap, run) -> EventResult:
    return _execute_time_ordered(ls, [plan], [lane_ls], [cap], run).lane(0)


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
    # time-ordered passes only: sender post times ``[sends, N]`` and the
    # driver's ``(id, lanes)`` pop logs of send posts and computes
    SP: np.ndarray | None = None
    post_log: list | None = None
    comp_log: list | None = None

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
        plan, lane_ls, ls = self.plans[k], self.lane_lss[k], self.ls
        cs = self.CS[:, k].tolist()
        ce = self.CE[:, k].tolist()
        ss = [float(self.TS[slot][k]) for slot in plan.send_slot]
        se = [float(self.TE[slot][k]) for slot in plan.send_slot]
        if self.post_log is None:
            # uncontended lockstep: the wire grants a transfer the
            # moment it is posted, and the logs keep structural order
            sp, post_seq = ss, ls.post_seq
            mem_k = [(di, cs[cid] if is_alloc else ce[cid], delta, level,
                      cid)
                     for di, cid, delta, level, is_alloc
                     in lane_ls.mem_trace]
        else:
            # the pops of one lane appear in the shared logs in that
            # lane's own driver order
            sp = self.SP[:, k].tolist()
            post_seq = [sid for sid, lanes in self.post_log if k in lanes]
            # deltas and watermark levels are structural: the trace
            # grouped per compute, re-emitted in this lane's pop order
            by_cid: dict = {}
            for entry in lane_ls.mem_trace:
                by_cid.setdefault(entry[1], []).append(entry)
            mem_k = [(di, cs[cid] if is_alloc else ce[cid], delta, level,
                      cid)
                     for cid, lanes in self.comp_log
                     if cid in by_cid and k in lanes
                     for di, _cid, delta, level, is_alloc in by_cid[cid]]
        coll_k = [
            (lid, di, float(post[k]), float(start[k]), float(end[k]),
             tuple((float(s[k]), float(e[k])) for s, e in steps))
            for lid, di, post, start, end, steps in self.colls
        ]
        return _materialize(
            plan, ls.exec_seq, cs, ce, post_seq, sp, ss, se,
            ls.send_batched, coll_k, mem_k,
            [float(row[k]) for row in self.clock],
            [float(row[k]) for row in self.recv_wait],
            lane_ls.mem_peak if plan.program.tracks_memory else None)


class _TimeTables:
    """Cost-independent lookup tables of the time-ordered driver.

    The scalar ``peek``/``step`` walk the CSR dependency arrays per
    visit; the vector driver visits each blocking predicate once per
    *cohort*, so the per-compute local/remote splits are precomputed
    (in dependency order — the fold order every timing expression
    inherits) and cached on the structural replay.
    """

    __slots__ = ("comp_ldeps", "comp_rslots")

    def __init__(self, plan: ExecutablePlan):
        dep_ptr = plan.dep_ptr
        dep_remote, dep_idx = plan.dep_remote, plan.dep_idx
        ldeps: list[tuple] = []
        rslots: list[tuple] = []
        for a in range(plan.n_computes):
            ld: list[int] = []
            rs: list[int] = []
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                if dep_remote[e]:
                    rs.append(dep_idx[e])
                else:
                    ld.append(dep_idx[e])
            ldeps.append(tuple(ld))
            rslots.append(tuple(rs))
        self.comp_ldeps = ldeps
        self.comp_rslots = rslots


#: peek-cache sentinel — distinguishes "never computed / stale" from a
#: cached ``None`` ("head is flag-blocked", still a valid cache entry)
_UNSET = object()


class _Cohort:
    """Lanes sharing one structural state of the time-ordered driver.

    Blocking predicates read only flags (``comp_done`` / ``posted`` /
    ``batch_posted``) and cursors — all here, all shared cohort-wide —
    so one peek per device serves every lane; only *times* differ, and
    those live in the group-global ``[*, N]`` arrays indexed by
    ``lanes``.
    """

    __slots__ = ("lanes", "cursors", "comp_done", "posted",
                 "batch_posted", "done", "peeks")

    def __init__(self, lanes, cursors, comp_done, posted, batch_posted,
                 done):
        self.lanes = lanes              # np.intp, ascending
        self.cursors = cursors          # per-device next action index
        self.comp_done = comp_done
        self.posted = posted
        self.batch_posted = batch_posted
        self.done = done                # actions fully executed
        self.peeks = None               # per-device peek cache (lazy)


def _execute_time_ordered(ls: LockstepSchedule, plans, lane_lss,
                          caps_raw, run: RunConfig) -> BatchResult:
    """A vectorized twin of the scalar time-ordered contention driver.

    Per-lane event cursors advance through the plan in each lane's own
    grant-time order.  Lanes sharing a structural state — the cursor
    tuple plus the posted-group bits — form a cohort; each iteration
    pops the least-advanced cohort once: one vectorized ``peek`` per
    device over the cohort's lanes, the globally-earliest device chosen
    per lane with the scalar driver's exact tie-break (strict ``<``,
    ascending device), and the scalar ``step`` expressions evaluated
    lane-wise for each chosen device.  Lanes choosing different devices
    split the cohort; cohorts whose structural states re-converge merge
    (timing state is global, so a merge is just a lane-set union).

    Mid-run capacity aborts happen in-batch: the violating allocations
    are structural, so each risky lane dies at whichever violating
    compute *its own* pop order reaches first — the scalar abort point
    — with the same device/peak attribution; its lazy compute costs
    resolve in pop order up to and including the aborting compute,
    preserving the lazy-cost contract.

    Every fold row and every lane view is bit-identical to a scalar
    ``execute_plan(plan, run, capacity_bytes=cap)`` of that lane
    alone: the fold orders (dependency order for arrivals and
    in-flight sums, wire-id order for collective steps, per-device
    program order for receives) and tie-breaking selects mirror the
    scalar core expression for expression.
    """
    head = plans[0]
    devices = head.devices
    num_devices = len(devices)
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
    n_comp = head.n_computes
    n_send = len(head.send_src)
    n_slots = head.n_slots
    n_wires = head.n_wires

    # -- per-lane gating: static pre-check, mid-run violation map --------
    errors: list[OutOfMemoryError | None] = [None] * n
    resolve_upto = [len(ls.exec_seq)] * n
    #: lanes that will abort mid-run: their costs resolve in pop order
    risky: dict[int, ExecutablePlan] = {}
    #: cid -> [(lane, level, device index)] violating allocations
    viol_map: dict[int, list[tuple[int, float, int]]] = {}
    for k, cap in enumerate(caps_raw):
        if cap is None:
            continue
        try:
            plans[k].program.check_static_memory(cap)
        except OutOfMemoryError as exc:
            errors[k] = exc
            resolve_upto[k] = 0
            continue
        lane_ls = lane_lss[k]
        if not len(lane_ls.alloc_levels):
            continue
        viol = lane_ls.alloc_levels > cap
        if viol.any():
            risky[k] = plans[k]
            resolve_upto[k] = 0
            lane_seq = lane_ls.exec_seq
            for j in np.nonzero(viol)[0]:
                j = int(j)
                cid = lane_seq[lane_ls.alloc_pos[j]]
                viol_map.setdefault(cid, []).append(
                    (k, float(lane_ls.alloc_levels[j]),
                     lane_ls.alloc_di[j]))

    Cm, Tm, Sm, Lm = _stacked_costs(ls, plans, resolve_upto,
                                    with_lat=True, mutable=bool(risky))

    tt = ls.time_tables
    if tt is None:
        tt = ls.time_tables = _TimeTables(head)
    comp_ldeps, comp_rslots = tt.comp_ldeps, tt.comp_rslots

    # -- group-global timing state, [*, N] -------------------------------
    CLK = np.zeros((num_devices, n))
    CF = np.zeros((num_devices, n))     # per-device NIC cursors
    RW = np.zeros((num_devices, n))
    TS = np.zeros((n_slots, n))
    TE = np.zeros((n_slots, n))
    CS = np.zeros((n_comp, n))
    CE = np.zeros((n_comp, n))
    WF = np.zeros((n_wires, n))
    WE = np.full((n_wires, n), -1, dtype=np.int64)
    SP = np.zeros((n_send, n))
    #: driver-order ``(send id | compute id, cohort lanes)`` pop logs,
    #: one append per cohort pop; a lane view filters them for its own
    #: order (only the comm-sort and mem-event tie-breaks consume it)
    post_log: list[tuple] = []
    comp_log: list[tuple] = []
    #: lid -> (device, post, start, end, [(step start, step end), ...])
    coll_recs: dict[int, tuple] = {}

    maximum, minimum, where = np.maximum, np.minimum, np.where

    def peek_vec(co: _Cohort, di: int, X):
        """Earliest execution times of the device's head, None if blocked.

        ``X`` indexes the cohort's lanes into the [*, N] state arrays —
        ``slice(None)`` when the cohort holds every lane (views, no
        fancy-index copies), its lane array otherwise.
        """
        i = co.cursors[di]
        dev_codes = codes[di]
        if i >= len(dev_codes):
            return None
        code = dev_codes[i]
        a = args[di][i]
        if code == OP_COMPUTE:
            comp_done = co.comp_done
            for x in comp_ldeps[a]:
                if not comp_done[x]:
                    return None
            at = CLK[di, X]
            if prefetch:
                posted = co.posted
                rs = comp_rslots[a]
                for r in rs:
                    if not posted[r]:
                        return None
                for r in rs:
                    at = maximum(at, TE[r, X])
            return at
        if code == OP_RECV and not prefetch:
            slot = recv_slot[a]
            if not co.posted[slot]:
                return None
            s = TS[slot, X]
            cl = CLK[di, X]
            return where(cl >= s, cl, s)
        if code == OP_BATCH and not prefetch:
            if not co.batch_posted[a]:
                return CLK[di, X]  # the posts themselves are due
            earliest = None
            for rid in batch_recv_ids[a]:
                slot = recv_slot[rid]
                if not co.posted[slot]:
                    return None
                s = TS[slot, X]
                earliest = s if earliest is None else minimum(earliest, s)
            cl = CLK[di, X]
            return where(cl >= earliest, cl, earliest)
        return CLK[di, X]  # sends, free posts, collectives, flush, step

    def step_vec(co: _Cohort, di: int, L, X) -> bool:
        """Execute one action lane-wise; False if the device must block.

        ``L`` is the cohort's lane array (bookkeeping: pop logs, lazy
        cost resolution, OOM kills); ``X`` is the state-array indexer —
        ``slice(None)`` when the cohort holds every lane.
        """
        i = co.cursors[di]
        code = codes[di][i]
        a = args[di][i]
        if code == OP_COMPUTE:
            ready = CLK[di, X]
            rs = comp_rslots[a] if prefetch else ()
            if rs:
                r = rs[0]
                arrival = TE[r, X]
                in_flight = arrival - TS[r, X]
                for r in rs[1:]:
                    te = TE[r, X]
                    arrival = maximum(arrival, te)
                    in_flight = in_flight + (te - TS[r, X])
                # the lockstep formula (see _execute_lockstep): the
                # scalar stall-vs-in-flight select in one ufunc, exact
                RW[di, X] = RW[di, X] + maximum(
                    minimum(arrival - ready, in_flight), 0.0)
                start = maximum(ready, arrival)
            else:
                start = ready
            row = Cm[a]
            if risky:
                for lane in L.tolist():
                    p = risky.get(lane)
                    if p is not None:
                        c = p.comp_cost[a]
                        if c is None:
                            c = p.costs.duration(p.comp_ops[a])
                            p.comp_cost[a] = c
                        row[lane] = c
            end = start + row[X]
            CS[a, X] = start
            CE[a, X] = end
            CLK[di, X] = end
            co.comp_done[a] = 1
            comp_log.append((a, L))
            hit = viol_map.get(a)
            if hit:
                dead = []
                for lane, level, adi in hit:
                    if (L == lane).any():
                        errors[lane] = OutOfMemoryError(
                            devices[adi], int(level), caps_raw[lane])
                        dead.append(lane)
                if dead:
                    co.lanes = co.lanes[~np.isin(co.lanes, dead)]
            return True
        if code == OP_SEND:
            post = CLK[di, X]
            t = Tm[a][X]
            tpos = t > 0.0
            slot = send_slot[a]
            if tpos.any():
                w = send_wire[a]
                wf = WF[w, X]
                busy = tpos & (post < wf)
                start = where(busy, wf, post)
                end = start + t
                WF[w, X] = where(tpos, end, wf)
                WE[w, X] = where(tpos, -1, WE[w, X])
            else:
                start = post
                end = post + t
            TS[slot, X] = start
            TE[slot, X] = end
            co.posted[slot] = 1
            SP[a, X] = post
            post_log.append((a, L))
            return True
        if code == OP_COLL:
            post = CLK[di, X]
            cf = CF[di, X]
            start = where(post >= cf, post, cf)
            t = start
            rec = coll_recs.get(a)
            if rec is None:
                rec = (di, np.zeros(n), np.zeros(n), np.zeros(n), [])
                coll_recs[a] = rec
            if coll_active[a]:
                step_time = Sm[a][X]
                wids = coll_wires_t[a]
                steps = rec[4]
                round_time = None
                for si in range(coll_nsteps[a]):
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
                count = coll_count[a]
                if count != 1.0:
                    # remaining rounds repeat the first back-to-back;
                    # the wires stay held for the whole run
                    t = t + (count - 1.0) * round_time
                    for w in wids:
                        WF[w, X] = t
            CF[di, X] = t
            rec[1][X] = post
            rec[2][X] = start
            rec[3][X] = t
            if coll_blocking[a]:
                CLK[di, X] = t
            return True
        if code == OP_RECV:
            if prefetch:
                return True  # free post; arrival is awaited by computes
            slot = recv_slot[a]
            s = TS[slot, X]
            duration = TE[slot, X] - s
            cl = CLK[di, X]
            CLK[di, X] = where(cl >= s, cl, s) + duration
            RW[di, X] = RW[di, X] + duration
            return True
        if code == OP_BATCH:
            if not co.batch_posted[a]:
                exch = batch_exch[a]
                post = CLK[di, X]
                for sid in batch_send_ids[a]:
                    t = Tm[sid][X]
                    tpos = t > 0.0
                    slot = send_slot[sid]
                    if tpos.any():
                        w = send_wire[sid]
                        wf = WF[w, X]
                        we = WE[w, X]
                        busy = tpos & (post < wf)
                        start = where(busy, wf, post)
                        # the opposing transfer of the *same* batched
                        # exchange holds the wire: the follower pays
                        # bytes only, not a second launch latency
                        dur = where(busy & (we == exch),
                                    maximum(t - Lm[sid][X], 0.0), t)
                        end = start + dur
                        WF[w, X] = where(tpos, end, wf)
                        WE[w, X] = where(tpos, exch, we)
                    else:
                        start = post
                        end = post + t
                    TS[slot, X] = start
                    TE[slot, X] = end
                    co.posted[slot] = 1
                    SP[sid, X] = post
                    post_log.append((sid, L))
                co.batch_posted[a] = 1
            if not prefetch:
                recvs = batch_recv_ids[a]
                posted = co.posted
                for rid in recvs:
                    if not posted[recv_slot[rid]]:
                        # the posts were the progress; the cohort keeps
                        # its cursor and re-peeks once the senders post
                        return False
                for rid in recvs:
                    slot = recv_slot[rid]
                    s = TS[slot, X]
                    duration = TE[slot, X] - s
                    cl = CLK[di, X]
                    CLK[di, X] = where(cl >= s, cl, s) + duration
                    RW[di, X] = RW[di, X] + duration
            return True
        return True  # OP_NOOP: flush/step; simulate_training charges it

    # -- the cohort pop loop ---------------------------------------------
    live = [k for k in range(n) if errors[k] is None]
    total = head.n_actions
    pool: dict[tuple, _Cohort] = {}
    finished: list[_Cohort] = []

    def pool_add(co: _Cohort) -> None:
        if not len(co.lanes):
            return
        if co.done == total:
            finished.append(co)
            return
        key = (tuple(co.cursors), bytes(co.batch_posted))
        ex = pool.get(key)
        if ex is not None:
            ex.lanes = np.sort(np.concatenate((ex.lanes, co.lanes)))
            ex.peeks = None  # lane set changed: cached vectors are stale
        else:
            pool[key] = co

    if live:
        pool_add(_Cohort(
            lanes=np.array(live, dtype=np.intp),
            cursors=[0] * num_devices,
            comp_done=bytearray(n_comp),
            posted=bytearray(n_slots),
            batch_posted=bytearray(len(batch_send_ids)),
            done=0,
        ))
    full_slice = slice(None)
    while pool:
        # the least-advanced cohort steps first: cohorts can only merge
        # at equal structural progress (the key fixes it), so keeping
        # the pool's progress spread tight maximizes re-convergence
        if len(pool) == 1:
            key, best = next(iter(pool.items()))
        else:
            key = best = best_p = None
            for k, co in pool.items():
                p = co.done + sum(co.batch_posted)
                if best_p is None or p < best_p:
                    key, best, best_p = k, co, p
        del pool[key]
        L = best.lanes
        X = full_slice if len(L) == n else L
        # per-device peek cache: a non-None peek reads only that
        # device's clock and transfer slots already posted (whose times
        # are final), so it stays valid until the device itself steps;
        # a cached None (blocked head) can only flip after a step that
        # sets flags.  _UNSET marks entries that must be recomputed.
        peeks = best.peeks
        if peeks is None:
            peeks = best.peeks = [_UNSET] * num_devices
        # fold per-device peeks; ``uni`` tracks the winning device while
        # every lane still agrees so the common case skips np.unique
        best_at = best_di = uni = None
        for di in range(num_devices):
            at = peeks[di]
            if at is _UNSET:
                at = peek_vec(best, di, X)
                peeks[di] = at
            if at is None:
                continue
            if best_at is None:
                best_at, uni = at, di
            else:
                m = at < best_at
                if m.any():
                    if m.all():
                        best_at, best_di, uni = at, None, di
                    else:
                        if best_di is None:
                            best_di = np.full(len(L), uni, dtype=np.intp)
                        best_at = where(m, at, best_at)
                        best_di = where(m, di, best_di)
                        uni = None
        if best_at is None:  # pragma: no cover - structurally impossible
            # blocking is flag-monotone, so any pop order completes
            # whenever the greedy structural pass did
            raise SchedulingError(
                f"{head.program.name}: simulation deadlock"
            )
        if uni is not None:
            # whole cohort agrees: advance in place, no split machinery
            code = codes[uni][best.cursors[uni]]
            n_before = len(L)
            if step_vec(best, uni, L, X):
                best.cursors[uni] += 1
                best.done += 1
            if len(best.lanes) != n_before:
                best.peeks = None  # OOM kill shrank the lane set
            else:
                peeks[uni] = _UNSET
                if (code == OP_COMPUTE or code == OP_SEND
                        or code == OP_BATCH):
                    # the step set flags: blocked heads may now be due
                    for j in range(num_devices):
                        if peeks[j] is None:
                            peeks[j] = _UNSET
            pool_add(best)
            continue
        best.peeks = None  # splitting: every child re-peeks
        for dv in np.unique(best_di):
            dv = int(dv)
            sub = L[best_di == dv]
            if len(sub) == len(L):
                child = best  # whole cohort agrees: advance in place
            else:
                child = _Cohort(
                    lanes=sub,
                    cursors=list(best.cursors),
                    comp_done=bytearray(best.comp_done),
                    posted=bytearray(best.posted),
                    batch_posted=bytearray(best.batch_posted),
                    done=best.done,
                )
            if step_vec(child, dv, sub, sub):
                child.cursors[dv] += 1
                child.done += 1
            pool_add(child)

    # every lane that did not abort ran every collective, so the
    # records are complete whenever any fold row will be read
    cols = _Columns(
        ls, plans, lane_lss, CS, CE, CLK, RW, TS, TE,
        [(ev[1], *coll_recs[ev[1]]) for ev in ls.events
         if ev[0] == _COLL and ev[1] in coll_recs],
        SP, post_log, comp_log)
    return BatchResult(errors, cols.fold(),
                       [partial(cols.lane, k) for k in range(n)])


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
