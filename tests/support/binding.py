"""The per-op / per-send cost binding, kept as the reference the plan's
gather is compared against, the per-op questions the reference
executors ask, and a seeded oracle whose durations vary per micro-batch
beyond what its stage tables say."""

from __future__ import annotations

import dataclasses
import random

from repro.runtime.costs import CostOracle
from repro.types import OpKind


def op_seconds(costs):
    """``op -> seconds`` under ``costs``, one op at a time: a
    :class:`RandomCosts` draw, else the op's pass's cell of its stage in
    the oracle's tables."""
    if isinstance(costs, RandomCosts):
        return costs.draw
    forward, backward = costs.stage_durations()
    return lambda op: (forward if op.kind is OpKind.FORWARD
                       else backward)[op.stage]


def send_seconds(costs, src: int, dst: int) -> tuple[float, float]:
    """``(seconds, latency)`` of one boundary tensor from program-local
    device ``src`` to ``dst``: free on one rank, else the oracle's link
    between their global ranks."""
    a, b = costs.global_rank(src), costs.global_rank(dst)
    return (0.0, 0.0) if a == b else costs.link(a, b)


def reference_binding(plan, costs) -> dict:
    """The cost columns of ``plan`` bound to ``costs`` one compute and
    one send at a time: every duration from the oracle's stage tables,
    every send's transfer seconds, latency and wire from its own link,
    wires interned in global-rank space in send-then-collective order."""
    devices = plan.devices
    granks = tuple(costs.global_rank(d) for d in devices)
    wire_ids: dict[frozenset, int] = {}

    def wire(a: int, b: int) -> int:
        return wire_ids.setdefault(frozenset((a, b)), len(wire_ids))

    forward, backward = costs.stage_durations()
    send_time, send_lat, send_wire = [], [], []
    for si, di in zip(plan.send_src, plan.send_dst):
        seconds, latency = send_seconds(costs, devices[si], devices[di])
        send_time.append(seconds)
        send_lat.append(latency)
        send_wire.append(wire(granks[si], granks[di]))
    coll_wires, coll_step_time = [], []
    for lid, pairs in enumerate(plan.coll_pairs):
        coll_wires.append(tuple(wire(a, b) for a, b in pairs))
        coll_step_time.append(
            max(costs.collective_link_time(a, b, plan.coll_chunk[lid])
                for a, b in pairs)
            if plan.coll_active[lid] else 0.0)
    return dict(
        comp_cost=[(forward if op.kind is OpKind.FORWARD else backward)
                   [op.stage] for op in plan.comp_ops],
        send_time=send_time, send_lat=send_lat, send_wire=send_wire,
        coll_wires=tuple(coll_wires), coll_step_time=coll_step_time,
        n_wires=len(wire_ids), global_ranks=granks,
    )


class RandomCosts(CostOracle):
    """Seeded irregular costs: per-(kind, microbatch, stage) durations
    and per-pair transfer times from small dyadic sets (exact sums, so
    heads still tie), zero-time pairs included, and link latencies no
    larger than their pair's transfer time.  Its stage tables are
    micro-batch 0's draws; :meth:`bind` puts every micro-batch's own
    draw into a bound plan's duration column.

    ``zero_time=False`` draws every cross-device transfer positive and
    every latency under half of it, so no hand-off (a batched
    follower's ``transfer - latency`` included) takes zero time.
    """

    DURATIONS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    TRANSFERS = (0.0, 0.25, 0.5, 1.0)

    def __init__(self, seed: int, num_devices: int, num_stages: int,
                 num_microbatches: int, zero_time: bool = True):
        rng = random.Random(seed)
        self._duration = {
            (kind, mb, st): rng.choice(self.DURATIONS)
            for kind in OpKind for mb in range(num_microbatches)
            for st in range(num_stages)}
        self._tables = tuple(
            tuple(self._duration[kind, 0, st] for st in range(num_stages))
            for kind in (OpKind.FORWARD, OpKind.BACKWARD))
        transfers = self.TRANSFERS if zero_time else self.TRANSFERS[1:]
        latencies = (0.0, 0.5, 1.0) if zero_time else (0.0, 0.5)
        self._link = {}
        for src in range(num_devices):
            for dst in range(num_devices):
                t = 0.0 if src == dst else rng.choice(transfers)
                self._link[src, dst] = (t, t * rng.choice(latencies))

    def draw(self, op) -> float:
        return self._duration[op.kind, op.microbatch, op.stage]

    def bind(self, plan):
        """``plan`` (bound to this oracle) with every compute's own draw
        as its duration column."""
        return dataclasses.replace(
            plan, comp_cost=[self.draw(op) for op in plan.comp_ops])

    def link(self, a: int, b: int) -> tuple[float, float]:
        return self._link[a, b]

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        return self.TRANSFERS[(3 * a + b) % len(self.TRANSFERS)]
