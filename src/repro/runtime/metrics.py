"""Metrics extracted from simulated timelines.

The paper's headline metric is the **bubble ratio** — the fraction of
device-time spent idle inside the pipeline's active window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from ..schedules.base import Schedule
from ..types import OpKind, Timeline, seq_sum


@dataclass(frozen=True)
class BubbleStats:
    """Idle-time accounting for one simulated iteration."""

    makespan: float
    busy: dict[int, float]          # per device compute time
    idle: dict[int, float]          # per device makespan - busy
    bubble_ratio: float             # aggregate: idle / (P * makespan)
    per_device_ratio: dict[int, float]


def bubble_stats(timeline: Timeline) -> BubbleStats:
    """Aggregate bubble accounting over the whole iteration window.

    The window is ``[0, makespan]`` on every device — the paper's
    convention, where warm-up and drain idleness count as bubbles.
    """
    makespan = timeline.makespan
    busy = {d: timeline.busy_time(d) for d in timeline.devices}
    idle = {d: makespan - b for d, b in busy.items()}
    denom = makespan * max(1, len(busy))
    ratio = seq_sum(idle.values()) / denom if denom > 0 else 0.0
    per_device = {
        d: (idle[d] / makespan if makespan > 0 else 0.0) for d in busy
    }
    return BubbleStats(
        makespan=makespan,
        busy=busy,
        idle=idle,
        bubble_ratio=ratio,
        per_device_ratio=per_device,
    )


class LaneFold(NamedTuple):
    """What the measurement layer keeps of N simulated lanes.

    Every field is an ``[N]`` float column, row k = lane k: the six
    numbers a throughput figure is built from, so a batch of lanes is
    folded on the lane axis without building one event object.
    """

    makespan: np.ndarray      # end of the last compute anywhere
    bubble_ratio: np.ndarray  # idle / (devices * makespan)
    busy_end: np.ndarray      # end of compute and blocking communication
    sync_s: np.ndarray        # busiest device's gradient-ring seconds
    sync_done: np.ndarray     # end of the last gradient sync (0 if none)
    peak_mem: np.ndarray      # highest per-device peak bytes (0 untracked)

    @classmethod
    def zeros(cls, n: int) -> "LaneFold":
        """``n`` blank rows (what an aborted lane's row holds)."""
        return cls(*(np.zeros(n) for _ in cls._fields))

    def row(self, k: int) -> tuple[float, ...]:
        """Lane ``k``'s six numbers as Python floats."""
        return tuple(float(column[k]) for column in self)


def fold_lanes(dev_rows, starts, ends, device_end, syncs,
               peak_mem) -> LaneFold:
    """Fold N lanes' timing columns into a :class:`LaneFold`.

    ``starts`` / ``ends`` are the ``[computes, N]`` span matrices and
    ``dev_rows`` lists, per computing device in ascending device order,
    the matrix rows that device executed in program order;
    ``device_end`` is ``[devices, N]``; ``syncs`` holds ``(device,
    start, end)`` of every ``GRAD_SYNC`` collective in per-device
    program order, ``[N]`` vectors each; ``peak_mem`` is the ``[N]``
    peak column.  One lane may come as plain floats instead — lists
    for ``starts`` / ``ends`` / ``device_end``, floats in ``syncs`` —
    and then folds without a NumPy call per compute.

    The exactness rule, stated once: every sum below adds lane-wise,
    one term at a time in per-device program order (:func:`seq_sum`),
    exactly as :func:`bubble_stats` and the scalar core accumulate, so
    each row is bit-identical to folding that lane's own
    :class:`~repro.runtime.events.EventResult`; ``max`` is order-free
    and may reduce whole matrices.
    """
    floats = not isinstance(ends, np.ndarray)
    if floats:
        zero, maximum = 0.0, max
        makespan = max(ends, default=0.0)
        durations = [end - start for start, end in zip(starts, ends)]
    else:
        zero, maximum = np.zeros(ends.shape[1]), np.maximum
        makespan = ends.max(axis=0) if len(ends) else zero
        durations = ends - starts
    idle = [makespan - seq_sum((durations[r] for r in rows), zero)
            for rows in dev_rows]
    denom = makespan * max(1, len(dev_rows))
    bubble = np.divide(seq_sum(idle, zero), denom, out=np.zeros_like(zero),
                       where=denom > 0)
    busy_end = reduce(maximum, device_end, makespan)
    per_device: dict = {}
    sync_done = zero
    for device, start, end in syncs:
        per_device[device] = per_device.get(device, zero) + (end - start)
        sync_done = maximum(sync_done, end)
    sync_s = reduce(maximum, per_device.values()) if per_device else zero
    columns = (makespan, bubble, busy_end, sync_s, sync_done)
    if floats:
        columns = tuple(np.array([x]) for x in columns)
    return LaneFold(*columns, peak_mem)


def steady_state_bubble_ratio(timeline: Timeline, trim: float = 0.25) -> float:
    """Bubble ratio excluding a ``trim`` fraction at both ends.

    Asynchronous schedules have no flush, so their meaningful number is
    the steady-state idle fraction (paper Fig. 4(b)); trimming removes
    the one-time warm-up and the artificial end-of-simulation drain.
    """
    makespan = timeline.makespan
    lo, hi = makespan * trim, makespan * (1 - trim)
    window = hi - lo
    if window <= 0:
        return 0.0
    ratios = []
    for d in timeline.devices:
        busy = 0.0
        for span in timeline.device_spans(d):
            busy += max(0.0, min(span.end, hi) - max(span.start, lo))
        ratios.append(1.0 - busy / window)
    return sum(ratios) / len(ratios) if ratios else 0.0


def compute_time_lower_bound(schedule: Schedule, duration_of) -> float:
    """Per-device compute if bubbles were zero: max over devices of work."""
    work: dict[int, float] = {}
    for op in schedule.all_ops():
        work[op.device] = work.get(op.device, 0.0) + duration_of(op)
    return max(work.values()) if work else 0.0


def kind_time(timeline: Timeline, kind: OpKind) -> float:
    """Total device-time spent in ops of ``kind`` (for sanity checks)."""
    return sum(t.duration for t in timeline.iter_ops() if t.op.kind is kind)
