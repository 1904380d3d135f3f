"""ScheduleOp / TimedOp / Timeline primitives."""

import math

import pytest

import numpy as np

from repro.types import (
    OpKind,
    ScheduleOp,
    TimedOp,
    Timeline,
    fmt_bytes,
    seq_sum,
)


def op(kind=OpKind.FORWARD, m=0, s=0, d=0, chunk=0):
    return ScheduleOp(device=d, kind=kind, microbatch=m, stage=s, chunk=chunk)


class TestScheduleOp:
    def test_key_ignores_placement(self):
        a = op(d=0, chunk=0)
        b = a.with_device(3, chunk=1)
        assert a.key == b.key
        assert b.device == 3 and b.chunk == 1

    def test_str(self):
        assert str(op(OpKind.BACKWARD, m=2, s=5, d=1)) == "B(m2,s5)@d1"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            op().device = 5

    def test_opkind_short(self):
        assert OpKind.FORWARD.short == "F"
        assert OpKind.BACKWARD.short == "B"


class TestTimedOp:
    def test_duration(self):
        t = TimedOp(op=op(), start=1.0, end=3.5)
        assert t.duration == pytest.approx(2.5)

    def test_overlaps(self):
        a = TimedOp(op=op(), start=0.0, end=2.0)
        b = TimedOp(op=op(m=1), start=1.5, end=3.0)
        c = TimedOp(op=op(m=2), start=2.0, end=3.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching intervals do not overlap


class TestTimeline:
    def _timeline(self):
        tl = Timeline()
        tl.add(TimedOp(op=op(d=0), start=0.0, end=1.0))
        tl.add(TimedOp(op=op(d=0, m=1), start=2.0, end=4.0))
        tl.add(TimedOp(op=op(d=1), start=1.0, end=2.0))
        return tl

    def test_makespan_and_start(self):
        tl = self._timeline()
        assert tl.makespan == 4.0
        assert tl.start_time == 0.0

    def test_busy_time(self):
        tl = self._timeline()
        assert tl.busy_time(0) == pytest.approx(3.0)
        assert tl.busy_time(1) == pytest.approx(1.0)
        assert tl.busy_time(9) == 0.0

    def test_folds_add_left_to_right_on_every_interpreter(self):
        """Builtin ``sum`` is naive on 3.11 but compensated from 3.12
        (and ``np.sum`` is pairwise); the pinned statistics need the
        one order the scalar core and the lane-axis fold share."""
        from repro.runtime import bubble_stats

        assert seq_sum([1e16, 1.0, -1e16]) == 0.0     # compensated: 1.0
        lanes = seq_sum([np.array([1e16, 1.0]), np.array([1.0, 2.0]),
                         np.array([-1e16, 3.0])], np.zeros(2))
        assert lanes.tolist() == [0.0, 6.0]
        # durations 2**53, 1, 1: each 1.0 is absorbed when added alone
        big = 2.0 ** 53
        tl = Timeline()
        for m, end in enumerate((big, 1.0, 1.0)):
            tl.add(TimedOp(op=op(m=m), start=0.0, end=end))
        assert tl.busy_time(0) == big
        assert math.fsum(t.duration for t in tl.spans[0]) == big + 2.0
        # per-device idle 0, 2**53, 1, 1 — the same absorption
        stats = bubble_stats(Timeline(spans={
            d: [TimedOp(op=op(d=d), start=0.0, end=end)]
            for d, end in enumerate((big, 0.0, big - 1.0, big - 1.0))}))
        assert list(stats.idle.values()) == [0.0, big, 1.0, 1.0]
        assert stats.bubble_ratio == 0.25
        assert math.fsum(stats.idle.values()) / (big * 4) != 0.25

    def test_devices_sorted(self):
        assert self._timeline().devices == [0, 1]

    def test_empty(self):
        tl = Timeline()
        assert tl.makespan == 0.0
        assert tl.start_time == 0.0
        assert list(tl.iter_ops()) == []


class TestFmtBytes:
    @pytest.mark.parametrize("n,expect", [
        (512, "512.00 B"),
        (2048, "2.00 KiB"),
        (3 * 2**30, "3.00 GiB"),
    ])
    def test_units(self, n, expect):
        assert fmt_bytes(n) == expect


class TestTimelineSerialization:
    def _timeline(self):
        from repro.config import CostConfig
        from repro.runtime import AbstractCosts, simulate
        from repro.schedules import build_schedule
        from conftest import make_config

        sched = build_schedule(make_config("hanayo", 4, 4, num_waves=1))
        return simulate(
            sched, AbstractCosts(CostConfig(), 4, sched.num_stages)
        ).timeline

    def test_round_trip(self):
        import json

        tl = self._timeline()
        blob = json.dumps(tl.to_dict())
        back = Timeline.from_dict(json.loads(blob))
        assert back.makespan == tl.makespan
        assert back.devices == tl.devices
        for d in tl.devices:
            a = [(t.op.key, t.start, t.end) for t in tl.device_spans(d)]
            b = [(t.op.key, t.start, t.end) for t in back.device_spans(d)]
            assert a == b

    def test_metrics_survive_round_trip(self):
        from repro.runtime import bubble_stats

        tl = self._timeline()
        back = Timeline.from_dict(tl.to_dict())
        assert (bubble_stats(back).bubble_ratio
                == bubble_stats(tl).bubble_ratio)
