"""Discrete-event simulator: timing, prefetch semantics, deadlock."""

import pytest

from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import SchedulingError
from repro.runtime import (
    AbstractCosts,
    ConcreteCosts,
    bubble_stats,
    kind_time,
    simulate,
)
from repro.schedules import Schedule, build_schedule, gpipe_schedule
from repro.schedules.placement import LinearPlacement
from repro.types import OpKind

from conftest import ALL_SCHEMES, make_config, scheme_id


def run(scheme, p=4, b=4, t_c=0.0, prefetch=True, **kw):
    cfg = make_config(scheme, p, b, **kw)
    sched = build_schedule(cfg, CostConfig(t_c=t_c))
    costs = AbstractCosts(CostConfig(t_c=t_c), p, sched.num_stages)
    return simulate(sched, costs, RunConfig(prefetch=prefetch)), sched


class TestBasicTiming:
    def test_gpipe_makespan_closed_form(self):
        """GPipe with T_C=0: makespan = (B + P - 1)(t_f + t_b)... split
        into the fill + drain closed form."""
        p, b = 4, 4
        res, _ = run("gpipe", p, b)
        t_f, t_b = 1.0, 2.0
        expected = (p - 1) * t_f + b * t_f + b * t_b + (p - 1) * t_b
        assert res.makespan == pytest.approx(expected)

    def test_dapple_same_makespan_as_gpipe(self):
        g, _ = run("gpipe", 4, 8)
        d, _ = run("dapple", 4, 8)
        assert d.makespan == pytest.approx(g.makespan)

    def test_total_compute_conserved(self):
        for scheme, kw in ALL_SCHEMES:
            res, sched = run(scheme, 4, 4, **kw)
            fwd = kind_time(res.timeline, OpKind.FORWARD)
            bwd = kind_time(res.timeline, OpKind.BACKWARD)
            # B micro-batches x full model: B * P * t_f total forward.
            assert fwd == pytest.approx(4 * 4 * 1.0), scheme
            assert bwd == pytest.approx(4 * 4 * 2.0), scheme

    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_no_device_overlap(self, param):
        scheme, kw = param
        res, _ = run(scheme, 4, 4, t_c=0.1, **kw)
        for d in res.timeline.devices:
            spans = res.timeline.device_spans(d)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start + 1e-12

    @pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
    def test_dataflow_respected(self, param):
        scheme, kw = param
        res, sched = run(scheme, 4, 4, t_c=0.2, **kw)
        end_of = {
            (t.op.kind, t.op.microbatch, t.op.stage): t.end
            for t in res.timeline.iter_ops()
        }
        start_of = {
            (t.op.kind, t.op.microbatch, t.op.stage): t.start
            for t in res.timeline.iter_ops()
        }
        for op in sched.all_ops():
            for dep in sched.dependencies(op):
                key = (op.kind, op.microbatch, op.stage)
                assert end_of[dep] <= start_of[key] + 1e-12


class TestCommunicationModes:
    def test_comm_increases_makespan(self):
        fast, _ = run("dapple", 4, 4, t_c=0.0)
        slow, _ = run("dapple", 4, 4, t_c=0.5)
        assert slow.makespan > fast.makespan

    def test_prefetch_no_worse(self):
        for scheme, kw in ALL_SCHEMES:
            with_pf, _ = run(scheme, 4, 4, t_c=0.4, prefetch=True, **kw)
            without, _ = run(scheme, 4, 4, t_c=0.4, prefetch=False, **kw)
            assert with_pf.makespan <= without.makespan + 1e-9, scheme

    def test_blocking_recv_charged_to_device(self):
        res, _ = run("gpipe", 4, 4, t_c=0.5, prefetch=False)
        assert sum(res.recv_busy.values()) > 0

    def test_blocking_recv_busy_equals_transferred_time(self):
        """Without prefetch every message's full transfer is charged."""
        res, _ = run("dapple", 4, 4, t_c=0.5, prefetch=False)
        assert sum(res.recv_busy.values()) == pytest.approx(
            0.5 * len(res.comm)
        )

    def test_prefetch_accounts_residual_recv_wait(self):
        """Prefetch overlaps transfers but the event core still accounts
        the un-overlapped stalls — recv_busy is never silently empty
        while communication costs (the old simulator reported 0 here)."""
        res, _ = run("gpipe", 4, 4, t_c=0.5, prefetch=True)
        assert sum(res.recv_busy.values()) > 0

    def test_free_comm_leaves_recv_busy_empty(self):
        for prefetch in (True, False):
            res, _ = run("gpipe", 4, 4, t_c=0.0, prefetch=prefetch)
            assert sum(res.recv_busy.values()) == 0


class TestSimulatorDeadlock:
    def test_cross_device_order_inversion_detected(self):
        """Hand-build mutually waiting device programs."""
        cfg = make_config("gpipe", 2, 2)
        sched = gpipe_schedule(cfg)
        # Swap device 1's ops so it waits for m1 before m0 arrives,
        # while holding device-order constraints that cannot progress.
        bad = Schedule.empty("bad", cfg, LinearPlacement(2))
        f0 = sched.find(OpKind.FORWARD, 0, 0)
        f1 = sched.find(OpKind.FORWARD, 1, 0)
        b0 = sched.find(OpKind.BACKWARD, 0, 0)
        b1 = sched.find(OpKind.BACKWARD, 1, 0)
        # device 0 waits for backward grad of m0 before producing m0's
        # forward -> circular with itself through device 1.
        bad.device_ops[0] = [b0, f0, f1, b1]
        bad.device_ops[1] = sched.device_ops[1]
        with pytest.raises(SchedulingError, match="deadlock"):
            simulate(bad, AbstractCosts(CostConfig(), 2, 2))


class TestConcreteCosts:
    def test_duration_lookup(self):
        from repro.models import A100_40G, bert_64, stage_costs

        sc = stage_costs(bert_64(), 4, A100_40G)
        oracle = ConcreteCosts(sc)
        cfg = make_config("gpipe", 4, 2)
        sched = build_schedule(cfg)
        res = simulate(sched, oracle)
        total_fwd = kind_time(res.timeline, OpKind.FORWARD)
        assert total_fwd == pytest.approx(2 * sum(sc.forward))

    def test_stage_out_of_range(self):
        from repro.models import A100_40G, bert_64, stage_costs
        from repro.errors import ConfigError

        sc = stage_costs(bert_64(), 2, A100_40G)
        sched = build_schedule(make_config("gpipe", 4, 2))
        with pytest.raises(ConfigError, match="op stage 2 outside cost "
                                              "table of 2"):
            simulate(sched, ConcreteCosts(sc))

    def test_links(self):
        """One boundary tensor's ``(seconds, latency)``: ``t_c`` and no
        latency on the flat base, the effective link between global
        ranks (spaced by TP) on a cluster."""
        from repro.cluster import make_tacc
        from repro.models import A100_40G, bert_64, stage_costs
        from repro.runtime import ClusterCosts

        sc = stage_costs(bert_64(), 4, A100_40G)
        assert ConcreteCosts(sc, 0.5).link(0, 3) == (0.5, 0.0)
        tacc = ClusterCosts(sc, make_tacc(8), tp=2)
        route = tacc.topology.effective_link(2, 4)
        assert tacc.global_rank(1) == 2
        assert tacc.link(2, 4) == (route.transfer_time(sc.boundary_bytes),
                                   route.latency)

    def test_negative_message_cost_rejected(self):
        from repro.models import A100_40G, bert_64, stage_costs
        from repro.errors import ConfigError

        sc = stage_costs(bert_64(), 4, A100_40G)
        with pytest.raises(ConfigError, match="t_c must be >= 0"):
            ConcreteCosts(sc, -0.1)


class TestBubbleRatiosMatchPaperShape:
    """The Fig. 1 orderings, asserted as invariants."""

    def bubble(self, scheme, p=8, b=8, w=1, t_c=0.0):
        res, _ = run(scheme, p, b, t_c=t_c,
                     **({"num_waves": w} if scheme in ("hanayo", "interleaved") else {}))
        return bubble_stats(res.timeline).bubble_ratio

    def test_gpipe_exact_closed_form(self):
        p = b = 8
        assert self.bubble("gpipe") == pytest.approx((p - 1) / (b + p - 1))

    def test_ordering(self):
        gems = self.bubble("gems")
        gpipe = self.bubble("gpipe")
        chimera = self.bubble("chimera")
        h2 = self.bubble("hanayo", w=2)
        h4 = self.bubble("hanayo", w=4)
        assert gems > gpipe > chimera > h2 > h4

    def test_hanayo_monotone_in_waves(self):
        ratios = [self.bubble("hanayo", w=w) for w in (1, 2, 4)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_chimera_close_to_its_wave_form(self):
        """At equal device count the folded wave form sits within a few
        points of plain Chimera (the exact transform equivalence — at
        halved device count — is tested in test_transform.py)."""
        assert self.bubble("chimera-wave") == pytest.approx(
            self.bubble("chimera"), abs=0.06
        )
