"""Event-driven execution of a compiled program, on its lowered form.

This is the cluster-level event core both modeled executions share.
Since the lowered-plan refactor it no longer interprets the rich
Program IR directly: :func:`execute_program` first lowers the program
to an :class:`~repro.actions.lowering.ExecutablePlan` — flat integer
arrays with precomputed costs, interned wires and CSR dependency edges
— and :func:`execute_plan` runs the event loop over those indices.
Array ready-state (``comp_done`` / ``posted`` byte arrays, per-slot
transfer times) replaces the old ``produced: dict[tuple, float]`` and
``(device, tag)`` transfer dicts; wires and batched exchanges are
pre-interned ints instead of ``frozenset`` keys; per-device cursors are
preallocated lists.  The result is bit-identical to the pre-lowering
interpreter, which the test suite keeps as its oracle and compares
against over the full schedule-family × prefetch × batching matrix.

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
  latency (:meth:`CostOracle.link_latency`) — the batched-P2P saving.

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
device/peak may differ between the greedy and time-ordered drivers
when several devices would violate; the OOM *verdict* is
driver-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    if capacity_bytes is not None:
        # Reject statically-infeasible programs before lowering binds
        # the oracle: an OOM verdict on static bytes alone must not
        # pay (or depend on) a single cost lookup.
        if not program.tracks_memory:
            raise SchedulingError(
                f"{program.name}: capacity enforcement needs a "
                "resource-annotated program (compile with resources=...)"
            )
        program.check_static_memory(capacity_bytes)
    return execute_plan(ExecutablePlan.lower(program, costs), run,
                        capacity_bytes=capacity_bytes)


def execute_plan(
    plan: ExecutablePlan,
    run: RunConfig | None = None,
    capacity_bytes: int | None = None,
    *,
    detail: str = "full",
) -> EventResult:
    """Run the event loop over a lowered (and cost-bound) plan.

    Blocking-vs-overlapped receives are a property of the *compiled*
    program (the prefetch hoisting pass and asynchronous recv semantics
    belong together), so execution follows the plan's flag — a
    RunConfig compiled-elsewhere mismatch cannot silently mis-time the
    run.  RunConfig contributes the fidelity knobs (``contention``).

    ``detail="lean"`` elides the comm log, executed order and memory
    events from the result (see :func:`_materialize`); every field it
    does produce is unchanged.  Scoring paths (sweeps, synthesis) that
    fold only timelines, collectives and peaks use it to skip object
    construction they would throw away.
    """
    run = run or RunConfig()
    if not plan.bound:
        raise SchedulingError(
            f"{plan.name}: plan is not cost-bound; lower with an oracle "
            "or call plan.retime(costs) first"
        )
    program = plan.program
    tracked = program.tracks_memory
    if capacity_bytes is not None:
        if not tracked:
            raise SchedulingError(
                f"{program.name}: capacity enforcement needs a "
                "resource-annotated program (compile with resources=...)"
            )
        program.check_static_memory(capacity_bytes)
    prefetch = plan.prefetch
    contention = run.contention

    devices = plan.devices
    num_devices = len(devices)
    codes, args = plan.codes, plan.args
    dep_ptr, dep_remote, dep_idx = plan.dep_ptr, plan.dep_remote, plan.dep_idx
    comp_cost = plan.comp_cost
    comp_ops = plan.comp_ops
    oracle = plan.costs
    comp_alloc, comp_free_b = plan.comp_alloc, plan.comp_free
    send_time, send_lat = plan.send_time, plan.send_lat
    send_wire, send_slot = plan.send_wire, plan.send_slot
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
    #: (lid, di, post, start, end, steps) in execution order
    coll_log: list[tuple] = []
    static = [program.static_bytes.get(d, 0.0) for d in devices]
    mem_level = list(static)
    mem_peak = list(static)
    #: (di, time, delta, level, cid) in execution order
    mem_log: list[tuple] = []

    def step(di: int, i: int) -> bool:
        """Execute one action; False if the device must block."""
        code = codes[di][i]
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
                            return False  # sender hasn't posted yet
                        te = tr_end[x]
                        if not have_arrival or te > arrival:
                            arrival = te
                        have_arrival = True
                        in_flight += te - tr_start[x]
                else:
                    # Local hand-off: the producer must have retired
                    # earlier on this device; if it hasn't, the program
                    # order is inverted and the device blocks (deadlock
                    # detection reports it).
                    if not comp_done[x]:
                        return False
                    de = comp_end_a[x]
                    if de > ready:
                        ready = de
            start = ready
            if have_arrival and arrival > ready:
                # Only the transfer-attributable share of the stall
                # counts as recv wait; waiting on the *producer* is a
                # bubble, not communication.
                stall = arrival - ready
                recv_wait[di] += stall if stall < in_flight else in_flight
                start = arrival
            cost = comp_cost[a]
            if cost is None:  # lazy duration fill (see retime)
                cost = oracle.duration(comp_ops[a])
                comp_cost[a] = cost
            end = start + cost
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
            duration = t
            if contention and t > 0.0:
                w = send_wire[a]
                if post < wire_free[w]:
                    start = wire_free[w]
                wire_free[w] = start + duration
                wire_exch[w] = -1
            slot = send_slot[a]
            tr_start[slot] = start
            tr_end[slot] = start + duration
            posted[slot] = 1
            send_post_a[a] = post
            send_start_a[a] = start
            send_end_a[a] = start + duration
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
                    if contention:
                        for w in wids:
                            wf = wire_free[w]
                            if wf > step_start:
                                step_start = wf
                    step_end = step_start + step_time
                    step_log.append((step_start, step_end))
                    round_time += step_time
                    if contention:
                        for w in wids:
                            wire_free[w] = step_end
                            wire_exch[w] = -1
                    t = step_end
                count = coll_count[a]
                if count != 1.0:
                    # Remaining rounds repeat the first back-to-back;
                    # the wires stay held for the whole run.
                    t += (count - 1.0) * round_time
                    if contention:
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
            if not posted[slot]:
                return False
            s = tr_start[slot]
            duration = tr_end[slot] - s
            cl = clock[di]
            start = cl if cl >= s else s
            clock[di] = start + duration
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
                    if contention and t > 0.0:
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

    def peek(di: int) -> float | None:
        """Earliest execution time of the device's head, None if blocked."""
        i = cursors[di]
        dev_codes = codes[di]
        if i >= len(dev_codes):
            return None
        code = dev_codes[i]
        a = args[di][i]
        if code == OP_COMPUTE:
            at = clock[di]
            for e in range(dep_ptr[a], dep_ptr[a + 1]):
                x = dep_idx[e]
                if dep_remote[e]:
                    if prefetch:
                        if not posted[x]:
                            return None
                        te = tr_end[x]
                        if te > at:
                            at = te
                else:
                    if not comp_done[x]:
                        return None
                    de = comp_end_a[x]
                    if de > at:
                        at = de
            return at
        if code == OP_RECV and not prefetch:
            slot = recv_slot[a]
            if not posted[slot]:
                return None
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
                    return None
                s = tr_start[slot]
                if earliest is None or s < earliest:
                    earliest = s
            cl = clock[di]
            return cl if cl >= earliest else earliest
        return clock[di]  # sends, free posts, collectives, flush, step

    def _deadlock() -> None:
        heads = {
            d: str(acts[cursors[di]])
            for di, (d, acts) in enumerate(program.actions.items())
            if cursors[di] < len(acts)
        }
        # Explain the stall: every blocked device waits on exactly one
        # other device (the sender of an unposted slot, or itself for a
        # same-device dependency inversion); following those pointers
        # from any blocked device must revisit a device — that
        # repetition is the wait cycle.
        slot_sender = {}
        slot_tag = {}
        for sid in range(n_send):
            slot = send_slot[sid]
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
                            return (slot_sender[x],
                                    f"unposted {slot_tag[x]}")
                    elif not comp_done[x]:
                        kind, mb, st = plan.comp_keys[x]
                        return (plan.comp_device[x],
                                f"unretired {kind.value}(m{mb},s{st})")
            elif code == OP_RECV and not prefetch:
                slot = recv_slot[a]
                if not posted[slot]:
                    return (slot_sender[slot], f"unposted {slot_tag[slot]}")
            elif code == OP_BATCH and not prefetch:
                for rid in batch_recv_ids[a]:
                    slot = recv_slot[rid]
                    if not posted[slot]:
                        return (slot_sender[slot],
                                f"unposted {slot_tag[slot]}")
            return None

        cycle = ""
        start_di = next(
            (di for di in range(num_devices) if blocker(di) is not None),
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
        raise SchedulingError(
            f"{program.name}: simulation deadlock; heads = {heads}{cycle}"
        )

    total = plan.n_actions
    done = 0
    if contention:
        # Contention driver: execute heads in global time order.  Wire
        # arbitration happens at send-post time, so posts must be
        # issued in nondecreasing simulated time or an earlier-posted
        # transfer could queue behind a later one (a replay-order
        # artifact).  Executing the globally earliest eligible head is
        # sufficient: any action enabled by an execution at time ``t``
        # becomes eligible no earlier than ``t``, so execution times
        # are monotone and wire grants follow post order
        # deterministically (ties broken by device rank).
        while done < total:
            best_at = None
            best_di = -1
            for di in range(num_devices):
                at = peek(di)
                if at is not None and (best_at is None or at < best_at):
                    best_at, best_di = at, di
            if best_di < 0:
                _deadlock()
            if step(best_di, cursors[best_di]):
                cursors[best_di] += 1
                done += 1
            # else: a batched group posted its sends but still blocks
            # on inbound transfers — posting was the progress.
    else:
        # Fast driver: advance each device as far as it can.  Correct
        # whenever timing is independent of replay order — i.e. without
        # contention, where every formula depends only on already-fixed
        # quantities (producer ends, post times).
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
                _deadlock()

    if tracked:
        for di in range(num_devices):
            drift = mem_level[di] - static[di]
            # tolerance: float accumulation over many alloc/free pairs
            # of non-representable byte counts (e.g. TP-sharded sizes)
            if abs(drift) > max(64.0, 1e-9 * mem_peak[di]):
                raise AssertionError(
                    f"activation leak on device {devices[di]}: "
                    f"{drift} bytes"
                )

    return _materialize(plan, exec_seq, comp_start_a, comp_end_a,
                        post_seq, send_post_a, send_start_a, send_end_a,
                        send_batched, coll_log, mem_log, clock, recv_wait,
                        mem_peak if tracked else None, detail=detail)


def _materialize(plan, exec_seq, comp_start_a, comp_end_a, post_seq,
                 send_post_a, send_start_a, send_end_a, send_batched,
                 coll_log, mem_log, clock, recv_wait, mem_peak,
                 detail="full"):
    """Rebuild the rich event objects from the run's flat arrays.

    Object construction is deferred out of the hot loop: timeline
    spans, comm/collective/memory events and the executed order are
    assembled once, in the exact order (and with the exact sort keys)
    the reference core produces them, so results stay bit-identical.

    ``detail="lean"`` leaves ``comm``, ``order`` and ``mem_events``
    empty — the fields scoring paths never read — and is otherwise an
    exact subset of the full result.
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

    full = detail != "lean"
    comm: list[CommEvent] = []
    if full:
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

    mem_events: list[MemoryEvent] = []
    order: dict[int, list[Action]] = {}
    if full:
        comp_keys = plan.comp_keys
        mem_events = [
            MemoryEvent(device=devices[di], time=time, delta=delta,
                        level=level, key=comp_keys[cid])
            for di, time, delta, level, cid in mem_log
        ]
        # A completed run replays every device list prefix-complete, so
        # the executed order IS the program's lists.
        order = {d: list(program.actions[d]) for d in devices}
    return EventResult(
        timeline=timeline,
        recv_wait={devices[di]: recv_wait[di]
                   for di in range(len(devices))},
        comm=comm,
        order=order,
        mem_peak=({devices[di]: mem_peak[di]
                   for di in range(len(devices))}
                  if mem_peak is not None else {}),
        mem_events=mem_events,
        collectives=collectives,
        device_end={devices[di]: clock[di]
                    for di in range(len(devices))},
    )
