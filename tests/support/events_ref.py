"""Reference event core: the pre-lowering interpreter, kept verbatim.

This is the dict-walking implementation :mod:`repro.runtime.events`
shipped before programs were lowered to an
:class:`~repro.actions.lowering.ExecutablePlan`.  It interprets the
Program IR directly — ``(device, tag)`` tuple keys, ``frozenset`` wire
identities, per-action ``isinstance`` dispatch — and is the first
executor :func:`support.oracle.assert_executors_agree` runs: every other
executor must match it on all eight ``EventResult`` fields, the OOM
triple and the deadlock text, over the generated corpus of
``tests/test_executor_oracle.py``.

It asks the oracle one op and one send at a time (``support.binding``),
where the plan gathers.  Semantics documentation lives with the
production core in :mod:`repro.runtime.events`; the two must only ever
differ in representation.
"""

from __future__ import annotations

from repro.actions.collectives import ring_pairs, ring_step_count
from repro.actions.ops import (
    Action,
    BatchedP2P,
    CollectiveOp,
    Flush,
    OptimizerStep,
    Recv,
    Send,
    Tag,
)
from repro.actions.program import Program, compute_key
from repro.config import RunConfig
from repro.errors import OutOfMemoryError, SchedulingError
from repro.runtime.costs import CostOracle
from repro.runtime.events import (
    CollectiveEvent,
    CommEvent,
    EventResult,
    MemoryEvent,
)
from repro.types import TimedOp, Timeline

from support.binding import op_seconds, send_seconds


class _Wire:
    """Per-pair link state for the contention model."""

    __slots__ = ("free", "last_exchange")

    def __init__(self) -> None:
        self.free = 0.0
        #: tag set of the batched exchange whose transfer last held the
        #: wire — the latency waiver applies only within one exchange
        self.last_exchange: frozenset | None = None


def execute_program_reference(
    program: Program,
    costs: CostOracle,
    run: RunConfig | None = None,
    capacity_bytes: int | None = None,
) -> EventResult:
    """Time ``program`` against ``costs`` with the pre-lowering loop."""
    run = run or RunConfig()
    tracked = program.tracks_memory
    if capacity_bytes is not None:
        if not tracked:
            raise SchedulingError(
                f"{program.name}: capacity enforcement needs a "
                "resource-annotated program (compile with resources=...)"
            )
        program.check_static_memory(capacity_bytes)
    prefetch = program.prefetch
    contention = run.contention
    duration_of = op_seconds(costs)

    cursors = {d: 0 for d in program.actions}
    clock = {d: 0.0 for d in program.actions}
    recv_wait = {d: 0.0 for d in program.actions}
    order: dict[int, list[Action]] = {d: [] for d in program.actions}
    produced: dict[tuple, float] = {}
    transfers: dict[tuple[int, Tag], CommEvent] = {}
    posted_groups: set[tuple[int, int]] = set()
    wires: dict[frozenset, _Wire] = {}
    timeline = Timeline()
    comm: list[CommEvent] = []
    collectives: list[CollectiveEvent] = []
    coll_free = {d: 0.0 for d in program.actions}
    mem_level = dict(program.static_bytes)
    mem_peak = dict(mem_level)
    mem_events: list[MemoryEvent] = []

    def account_memory(device: int, key: tuple, start: float,
                       end: float) -> None:
        alloc = program.alloc_bytes(key)
        if alloc:
            level = mem_level[device] + alloc
            mem_level[device] = level
            mem_events.append(MemoryEvent(
                device=device, time=start, delta=+alloc, level=level,
                key=key,
            ))
            if level > mem_peak[device]:
                mem_peak[device] = level
                if capacity_bytes is not None and level > capacity_bytes:
                    raise OutOfMemoryError(device, int(level),
                                           capacity_bytes)
        free = program.free_bytes(key)
        if free:
            level = mem_level[device] - free
            mem_level[device] = level
            mem_events.append(MemoryEvent(
                device=device, time=end, delta=-free, level=level,
                key=key,
            ))

    def post_send(device: int, send: Send,
                  exchange: frozenset | None) -> None:
        tag, dst = send.tag, send.peer
        t_comm, latency = send_seconds(costs, device, dst)
        post = start = clock[device]
        duration = t_comm
        if contention and t_comm > 0.0:
            wire = wires.setdefault(
                frozenset((costs.global_rank(device),
                           costs.global_rank(dst))), _Wire())
            if post < wire.free:
                start = wire.free
                if exchange is not None and wire.last_exchange == exchange:
                    duration = max(0.0, t_comm - latency)
            wire.free = start + duration
            wire.last_exchange = exchange
        event = CommEvent(
            tag=tag, src=device, dst=dst, post=post, start=start,
            end=start + duration,
            nbytes=program.tensor_bytes.get(tag, 0.0),
            batched=exchange is not None,
        )
        transfers[(dst, tag)] = event
        comm.append(event)

    def run_collective(device: int, coll: CollectiveOp) -> None:
        post = clock[device]
        start = max(post, coll_free[device])
        pairs = ring_pairs(coll.group)
        steps: list[tuple[float, float]] = []
        t = start
        if pairs and coll.nbytes > 0 and coll.count > 0:
            chunk = coll.nbytes / len(coll.group)
            step_time = max(
                costs.collective_link_time(a, b, chunk) for a, b in pairs
            )
            round_time = 0.0
            for _ in range(ring_step_count(len(coll.group))):
                step_start = t
                if contention:
                    ws = [wires.setdefault(frozenset(pair), _Wire())
                          for pair in pairs]
                    step_start = max([t] + [w.free for w in ws])
                step_end = step_start + step_time
                steps.append((step_start, step_end))
                round_time += step_time
                if contention:
                    for w in ws:
                        w.free = step_end
                        w.last_exchange = None
                t = step_end
            if coll.count != 1.0:
                t += (coll.count - 1.0) * round_time
                if contention:
                    for pair in pairs:
                        wires[frozenset(pair)].free = t
        end = t
        coll_free[device] = end
        collectives.append(CollectiveEvent(
            op=coll, device=device, post=post, start=start, end=end,
            steps=tuple(steps),
        ))
        if coll.blocking:
            clock[device] = end

    def blocking_recv(device: int, recv: Recv) -> bool:
        event = transfers.get((device, recv.tag))
        if event is None:
            return False
        start = max(clock[device], event.start)
        clock[device] = start + event.duration
        recv_wait[device] += event.duration
        return True

    def try_compute(device: int, act: Action) -> bool:
        key = compute_key(act)
        deps = program.deps[key]
        ready = clock[device]
        arrival = None
        in_flight = 0.0
        for dep in deps:
            if dep.tag is None:
                done_at = produced.get(dep.producer)
                if done_at is None:
                    return False
                ready = max(ready, done_at)
            elif prefetch:
                event = transfers.get((device, dep.tag))
                if event is None:
                    return False  # sender hasn't posted yet
                arrival = event.end if arrival is None else max(arrival,
                                                                event.end)
                in_flight += event.duration
        start = ready
        if arrival is not None and arrival > ready:
            recv_wait[device] += min(arrival - ready, in_flight)
            start = arrival
        op = program.ops[key]
        end = start + duration_of(op)
        timeline.add(TimedOp(op=op, start=start, end=end))
        clock[device] = end
        produced[key] = end
        if tracked:
            account_memory(device, key, start, end)
        return True

    def step(device: int, index: int, act: Action) -> bool:
        if compute_key(act) is not None:
            return try_compute(device, act)
        if isinstance(act, Send):
            post_send(device, act, exchange=None)
            return True
        if isinstance(act, CollectiveOp):
            run_collective(device, act)
            return True
        if isinstance(act, Recv):
            if prefetch:
                return True
            return blocking_recv(device, act)
        if isinstance(act, BatchedP2P):
            if (device, index) not in posted_groups:
                exchange = frozenset(
                    [s.tag for s in act.sends] + [r.tag for r in act.recvs]
                )
                for send in act.sends:
                    post_send(device, send, exchange=exchange)
                posted_groups.add((device, index))
            if not prefetch:
                if any((device, r.tag) not in transfers for r in act.recvs):
                    return False
                for recv in act.recvs:
                    blocking_recv(device, recv)
            return True
        if isinstance(act, (Flush, OptimizerStep)):
            return True
        raise SchedulingError(f"unknown action {act!r} in program")

    def peek(device: int) -> float | None:
        actions = program.actions[device]
        if cursors[device] >= len(actions):
            return None
        act = actions[cursors[device]]
        key = compute_key(act)
        if key is not None:
            at = clock[device]
            for dep in program.deps[key]:
                if dep.tag is None:
                    done_at = produced.get(dep.producer)
                    if done_at is None:
                        return None
                    at = max(at, done_at)
                elif prefetch:
                    event = transfers.get((device, dep.tag))
                    if event is None:
                        return None
                    at = max(at, event.end)
            return at
        if isinstance(act, Recv) and not prefetch:
            event = transfers.get((device, act.tag))
            if event is None:
                return None
            return max(clock[device], event.start)
        if isinstance(act, BatchedP2P) and not prefetch:
            if (device, cursors[device]) not in posted_groups:
                return clock[device]
            events = [transfers.get((device, r.tag)) for r in act.recvs]
            if any(e is None for e in events):
                return None
            return max(clock[device], min(e.start for e in events))
        return clock[device]

    def run_greedy() -> None:
        done = 0
        while done < total:
            progressed = False
            for device, actions in program.actions.items():
                while cursors[device] < len(actions):
                    act = actions[cursors[device]]
                    if not step(device, cursors[device], act):
                        break
                    order[device].append(act)
                    cursors[device] += 1
                    done += 1
                    progressed = True
            if not progressed and done < total:
                _deadlock()

    def run_time_ordered() -> None:
        done = 0
        while done < total:
            best_at = best_device = None
            for device in program.actions:
                at = peek(device)
                if at is not None and (best_at is None or at < best_at):
                    best_at, best_device = at, device
            if best_device is None:
                _deadlock()
            act = program.actions[best_device][cursors[best_device]]
            if step(best_device, cursors[best_device], act):
                order[best_device].append(act)
                cursors[best_device] += 1
                done += 1

    def _deadlock() -> None:
        heads = {
            d: str(acts[cursors[d]])
            for d, acts in program.actions.items()
            if cursors[d] < len(acts)
        }
        raise SchedulingError(
            f"{program.name}: simulation deadlock; heads = {heads}"
        )

    total = program.action_count()
    if contention:
        run_time_ordered()
    else:
        run_greedy()

    if tracked:
        for device, level in mem_level.items():
            drift = level - program.static_bytes[device]
            if abs(drift) > max(64.0, 1e-9 * mem_peak[device]):
                raise AssertionError(
                    f"activation leak on device {device}: {drift} bytes"
                )

    for spans in timeline.spans.values():
        spans.sort(key=lambda t: t.start)
    comm.sort(key=lambda e: (e.post, e.start))
    collectives.sort(key=lambda e: (e.post, e.start, e.device))
    return EventResult(timeline=timeline, recv_wait=recv_wait, comm=comm,
                       order=order, mem_peak=mem_peak, mem_events=mem_events,
                       collectives=collectives, device_end=dict(clock))
