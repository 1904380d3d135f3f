"""Runtime metrics and the byte-accurate memory tracker."""

import pytest

from repro.config import CostConfig
from repro.errors import OutOfMemoryError
from repro.models import A100_40G, bert_64, stage_costs
from repro.runtime import (
    AbstractCosts,
    bubble_stats,
    memory_stats,
    simulate,
    static_memory,
    steady_state_bubble_ratio,
)
from repro.schedules import build_schedule

from conftest import ALL_SCHEMES, make_config, scheme_id


def simulated(scheme, p=4, b=4, **kw):
    cfg = make_config(scheme, p, b, **kw)
    sched = build_schedule(cfg)
    res = simulate(sched, AbstractCosts(CostConfig(), p, sched.num_stages))
    return sched, res


class TestBubbleStats:
    def test_idle_plus_busy_equals_makespan(self):
        _, res = simulated("dapple")
        stats = bubble_stats(res.timeline)
        for d in stats.busy:
            assert stats.busy[d] + stats.idle[d] == pytest.approx(
                stats.makespan
            )

    def test_ratio_in_unit_interval(self):
        for scheme, kw in ALL_SCHEMES:
            _, res = simulated(scheme, **kw)
            r = bubble_stats(res.timeline).bubble_ratio
            assert 0.0 <= r < 1.0, scheme

    def test_steady_state_lower_than_full_for_async(self):
        from repro.schedules import async_1f1b_schedule
        cfg = make_config("async-1f1b", 4, 4)
        sched = async_1f1b_schedule(cfg, iterations=6)
        res = simulate(sched, AbstractCosts(CostConfig(), 4, 4))
        full = bubble_stats(res.timeline).bubble_ratio
        steady = steady_state_bubble_ratio(res.timeline)
        assert steady < full
        assert steady < 0.05  # async steady state is bubble-free


class TestMemoryTracker:
    def _mem(self, scheme, p=4, b=4, **kw):
        sched, res = simulated(scheme, p, b, **kw)
        costs = stage_costs(bert_64(), sched.num_stages, A100_40G)
        return memory_stats(sched, res.timeline, costs), sched, costs

    def test_static_includes_all_resident_stages(self):
        mem, sched, costs = self._mem("hanayo", num_waves=2)
        per_stage = costs.weight_bytes[0]
        for d, static in mem.static_bytes.items():
            assert static == pytest.approx(
                per_stage * sched.placement.chunks_on(d)
            )

    def test_chimera_static_doubled(self):
        mem_c, _, costs = self._mem("chimera")
        mem_d, _, _ = self._mem("dapple")
        assert mem_c.static_bytes[0] == pytest.approx(
            2 * mem_d.static_bytes[0]
        )

    def test_peaks_at_least_static(self):
        for scheme, kw in ALL_SCHEMES:
            mem, _, _ = self._mem(scheme, **kw)
            for d in mem.peak_bytes:
                assert mem.peak_bytes[d] >= mem.static_bytes[d]

    def test_gpipe_holds_all_microbatches(self):
        """GPipe peak activation = B x one stage's activation."""
        mem, sched, costs = self._mem("gpipe", 4, 6)
        act = mem.peak_bytes[0] - mem.static_bytes[0]
        assert act == pytest.approx(6 * costs.activation_bytes[0])

    def test_dapple_skew(self):
        """Device 0 peaks at P activations, the last device at 1."""
        mem, sched, costs = self._mem("dapple", 4, 8)
        act0 = mem.peak_bytes[0] - mem.static_bytes[0]
        act3 = mem.peak_bytes[3] - mem.static_bytes[3]
        assert act0 == pytest.approx(4 * costs.activation_bytes[0])
        assert act3 == pytest.approx(1 * costs.activation_bytes[3])

    def test_variance_ordering_matches_paper(self):
        """Fig. 8: DAPPLE most skewed; GPipe flat; Hanayo in between,
        closer to flat."""
        var = {}
        for scheme, kw in [("gpipe", {}), ("dapple", {}),
                           ("hanayo", {"num_waves": 2})]:
            mem, _, _ = self._mem(scheme, 8, 8, **kw)
            var[scheme] = mem.variance
        assert var["dapple"] > var["hanayo"] > var["gpipe"]

    def test_oom_detection(self):
        mem, _, _ = self._mem("gpipe", 4, 8)
        tiny_capacity = int(mem.highest_peak * 0.5)
        with pytest.raises(OutOfMemoryError) as exc:
            mem.check_capacity(tiny_capacity)
        assert exc.value.peak_bytes > exc.value.capacity_bytes
        assert not mem.fits(tiny_capacity)
        assert mem.fits(int(mem.highest_peak) + 1)

    def test_static_memory_helper(self):
        sched, _ = simulated("dapple")
        costs = stage_costs(bert_64(), sched.num_stages, A100_40G)
        static = static_memory(sched, costs)
        assert set(static) == set(range(4))
