"""The per-op / per-send cost binding, kept as the reference the plan's
gather is compared against, and a seeded oracle whose durations vary per
micro-batch (so it has no stage tables)."""

from __future__ import annotations

import random

from repro.runtime.costs import CostOracle
from repro.types import OpKind


def reference_binding(plan, costs) -> dict:
    """The cost columns of ``plan`` bound to ``costs`` one compute and
    one send at a time: every duration from ``costs.duration(op)``,
    every send's transfer seconds, latency and wire from its own oracle
    calls, wires interned in global-rank space in send-then-collective
    order."""
    devices = plan.devices
    granks = tuple(costs.global_rank(d) for d in devices)
    wire_ids: dict[frozenset, int] = {}

    def wire(a: int, b: int) -> int:
        return wire_ids.setdefault(frozenset((a, b)), len(wire_ids))

    send_time, send_lat, send_wire = [], [], []
    for si, di, stage in zip(plan.send_src, plan.send_dst, plan.send_stage):
        s, d = devices[si], devices[di]
        send_time.append(costs.transfer_time(s, d, stage))
        send_lat.append(costs.link_latency(s, d))
        send_wire.append(wire(granks[si], granks[di]))
    coll_wires, coll_step_time = [], []
    for lid, pairs in enumerate(plan.coll_pairs):
        coll_wires.append(tuple(wire(a, b) for a, b in pairs))
        coll_step_time.append(
            max(costs.collective_link_time(a, b, plan.coll_chunk[lid])
                for a, b in pairs)
            if plan.coll_active[lid] else 0.0)
    return dict(
        comp_cost=[costs.duration(op) for op in plan.comp_ops],
        send_time=send_time, send_lat=send_lat, send_wire=send_wire,
        coll_wires=tuple(coll_wires), coll_step_time=coll_step_time,
        n_wires=len(wire_ids), global_ranks=granks,
    )


class RandomCosts(CostOracle):
    """Seeded irregular costs: per-(kind, microbatch, stage) durations
    and per-pair transfer times from small dyadic sets (exact sums, so
    heads still tie), zero-time pairs included, and link latencies no
    larger than their pair's transfer time."""

    DURATIONS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    TRANSFERS = (0.0, 0.25, 0.5, 1.0)

    def __init__(self, seed: int, num_devices: int, num_stages: int,
                 num_microbatches: int):
        rng = random.Random(seed)
        self._duration = {
            (kind, mb, st): rng.choice(self.DURATIONS)
            for kind in OpKind for mb in range(num_microbatches)
            for st in range(num_stages)}
        self._transfer = {}
        self._latency = {}
        for src in range(num_devices):
            for dst in range(num_devices):
                t = 0.0 if src == dst else rng.choice(self.TRANSFERS)
                self._transfer[src, dst] = t
                self._latency[src, dst] = rng.choice((0.0, t / 2, t))

    def duration(self, op) -> float:
        return self._duration[op.kind, op.microbatch, op.stage]

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        return self._transfer[src, dst]

    def link_latency(self, src: int, dst: int) -> float:
        return self._latency[src, dst]

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        return self.TRANSFERS[(3 * a + b) % len(self.TRANSFERS)]
