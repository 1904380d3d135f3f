"""Score a legal ordering with one timed pass over legality's order.

Without contention the event core's every start time is a function of
already-fixed quantities — the device's previous compute end, local
producers' ends, remote producers' ends plus their transfer seconds —
so timing does not depend on replay order (the invariant the batched
runtime is built on).  A legal ordering's makespan is therefore a
longest-path recurrence over the wait graph
:class:`~repro.synthesis.legality.LegalityChecker` has already sorted
(:attr:`~repro.synthesis.legality.LegalityChecker.order` — a Kahn order
for a full check, the parent's order repaired for a mutated candidate;
any topological order gives the same score, since every one visits a
device's computes in device order), and :class:`TimedReplay` evaluates
it in plain floats with the event core's own expressions, so a score
is ``==`` to
:func:`~repro.runtime.events.execute_plan` +
:func:`~repro.runtime.metrics.bubble_stats` of the reordered program
(the synthesis fuzz suite pins it per candidate):

* a send posts the instant its producer retires — only computes and
  blocking receives move a device clock, and a compute's sends precede
  the next compute's receives;
* ``prefetch=True``: a compute starts at the latest of its device clock
  and each remote input's arrival (producer end + transfer seconds);
* ``prefetch=False``: the receiver first runs the compute's blocking
  receives in dependency order, each ``clock = max(clock, post) +
  ((post + t) - post)`` — ``step``'s arithmetic, term for term;
* local producers precede their consumer on its device (legality's
  ``dep-inversion`` rule), so the device clock already covers them.

Memory is not replayed: legality's capacity walk is exact, so a legal
ordering cannot run out of memory.  Contention is not modeled;
:class:`~repro.synthesis.search.SynthesisContext` rejects it.
"""

from __future__ import annotations

from ..actions.lowering import ExecutablePlan
from ..types import seq_sum


class TimedReplay:
    """The timing tables of one bound plan, built once per frontier.

    Compute ``i`` of the tables is compute ``i`` of the plan, which is
    ``program.ops`` order — the index space of
    :class:`~repro.synthesis.legality.LegalityChecker` for the program
    the plan (or a size binding of it) was lowered from.  Every
    :meth:`score` reads the plan's ``comp_cost`` column, which
    :meth:`~repro.actions.lowering.ExecutablePlan.retime` filled.
    """

    def __init__(self, plan: ExecutablePlan) -> None:
        self.plan = plan
        slot_time = [0.0] * plan.n_slots
        for slot, t in zip(plan.send_slot, plan.send_time):
            slot_time[slot] = t
        index = {key: cid for cid, key in enumerate(plan.comp_keys)}
        deps, dep_ptr, dep_idx = plan.program.deps, plan.dep_ptr, plan.dep_idx
        #: per compute, ``(producer, transfer seconds)`` of each remote
        #: input, in dependency (= blocking receive) order
        self._remote = tuple(
            tuple((index[dep.producer], slot_time[dep_idx[e]])
                  for e, dep in zip(range(dep_ptr[cid], dep_ptr[cid + 1]),
                                    deps.get(key, ()))
                  if dep.tag is not None)
            for cid, key in enumerate(plan.comp_keys))
        # bubble accounting runs over the computing devices, ascending
        devices = sorted({op.device for op in plan.comp_ops})
        rank = {d: i for i, d in enumerate(devices)}
        self._device = [rank[op.device] for op in plan.comp_ops]
        self._n_devices = len(devices)

    def score(self, order: list[int]) -> tuple[float, float]:
        """``(makespan, bubble_ratio)`` of the ordering whose wait graph
        ``order`` topologically sorts."""
        plan = self.plan
        cost = plan.comp_cost
        remote, device, prefetch = self._remote, self._device, plan.prefetch
        end = [0.0] * len(cost)
        clock = [0.0] * self._n_devices
        # per device, compute seconds summed in program order (the
        # topological order visits a device's computes in its order)
        busy = [0.0] * self._n_devices
        makespan = 0.0
        for i in order:
            d = device[i]
            start = clock[d]
            if prefetch:
                for p, t in remote[i]:
                    arrival = end[p] + t
                    if arrival > start:
                        start = arrival
            else:
                for p, t in remote[i]:
                    post = end[p]
                    if post > start:
                        start = post
                    start = start + ((post + t) - post)
            e = start + cost[i]
            end[i] = clock[d] = e
            busy[d] = busy[d] + (e - start)
            if e > makespan:
                makespan = e
        denom = makespan * max(1, self._n_devices)
        idle = seq_sum(makespan - b for b in busy)
        return makespan, (idle / denom if denom > 0 else 0.0)
