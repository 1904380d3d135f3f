"""What a correct execution result *is*, whichever executor made it.

:func:`check_result` asserts, of one ``EventResult`` and its plan:
every action ran, in program order; per-device spans, and one device's
collectives, are disjoint and monotone; every send became one transfer,
logged in posting order and, without contention, on the wire from its
post for its transfer time; under contention each wire's grants are
disjoint; every consumer starts at or after its inputs arrive; each
collective's ring steps chain inside it; watermarks step by their
deltas, end at static residency and peak at or above it; makespan is
at least the compute-time lower bound.  :func:`fold_of` is a result's
:class:`~repro.runtime.metrics.LaneFold` row, written out independently
of :func:`~repro.runtime.metrics.fold_lanes`.
"""

from __future__ import annotations

from repro.actions.collectives import ring_pairs
from repro.actions.ops import CollectiveKind
from repro.runtime.metrics import bubble_stats

from support.binding import send_seconds


def fold_of(result) -> tuple[float, ...]:
    """The six fold numbers of one result by the scalar accounting."""
    per_device: dict[int, float] = {}
    for c in result.collectives:
        if c.op.kind is CollectiveKind.GRAD_SYNC:
            per_device[c.device] = per_device.get(c.device, 0.0) \
                + c.duration
    stats = bubble_stats(result.timeline)
    return (stats.makespan, stats.bubble_ratio, result.busy_end,
            max(per_device.values(), default=0.0), result.sync_done(),
            max(result.mem_peak.values(), default=0.0))


def check_result(result, plan, run, lower_bound: float,
                 exact: bool = True) -> None:
    """Every invariant of ``result``, the execution of the cost-bound
    ``plan`` under ``run``.  ``exact``: the stage bytes are dyadic, so
    watermarks return to static residency exactly; otherwise to within
    a relative 1e-9 of the peak."""
    program, costs = plan.program, plan.costs
    starts, ends = {}, {}
    for device, spans in result.timeline.spans.items():
        at = 0.0
        for span in spans:
            assert span.op.device == device
            assert at <= span.start <= span.end, (device, span)
            at = span.end
            key = (span.op.kind, span.op.microbatch, span.op.stage)
            starts[key], ends[key] = span.start, span.end
        assert result.device_end[device] >= at
    assert set(starts) == set(program.ops)
    assert result.order == program.actions
    assert result.makespan >= lower_bound > 0.0

    arrival, held = {}, {}
    assert len(result.comm) == program.message_count()
    posts = [ev.post for ev in result.comm]
    assert posts == sorted(posts)
    for ev in result.comm:
        assert 0.0 <= ev.post <= ev.start <= ev.end, ev
        arrival[ev.dst, ev.tag] = ev.end
        t, _ = send_seconds(costs, ev.src, ev.dst)
        if not run.contention:
            assert (ev.start, ev.end) == (ev.post, ev.post + t), ev
        elif t > 0.0:
            wire = frozenset((costs.global_rank(ev.src),
                              costs.global_rank(ev.dst)))
            held.setdefault(wire, []).append((ev.start, ev.end))
    for key, deps in program.deps.items():
        device = program.ops[key].device
        for dep in deps:
            ready = ends[dep.producer] if dep.tag is None \
                else arrival[device, dep.tag]
            assert starts[key] >= ready, (key, dep)

    nic: dict[int, float] = {}
    for c in sorted(result.collectives, key=lambda c: c.start):
        # one device's collectives queue on its NIC, never overlapping
        assert c.post <= c.start <= c.end, c
        assert c.start >= nic.get(c.device, 0.0), c
        nic[c.device] = c.end
        at = c.start
        for start, end in c.steps:
            # under contention a step may also wait for its wires
            assert start >= at if run.contention else start == at, c
            assert end >= start
            at = end
        assert c.end >= at
        # the ring holds its wires for every step and repeated round
        intervals = list(c.steps) + [(at, c.end)] * (c.end > at)
        for wire in {frozenset(pair) for pair in ring_pairs(c.op.group)}:
            held.setdefault(wire, []).extend(intervals)
    if run.contention:
        for wire, intervals in held.items():
            intervals.sort()
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end, (sorted(wire), end, start)

    if program.tracks_memory:
        level = dict(program.static_bytes)
        for ev in result.mem_events:
            level[ev.device] += ev.delta
            assert ev.level == level[ev.device], ev
        for device, static in program.static_bytes.items():
            peak = result.mem_peak[device]
            assert peak >= static and peak >= level[device]
            if exact:
                assert level[device] == static, (device, level[device])
            else:
                assert abs(level[device] - static) <= 1e-9 * peak
