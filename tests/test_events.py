"""Event core: contention, batched-P2P sharing, comm logs, sim traces."""

import pytest

from repro.actions import compile_program
from repro.cluster import make_fc
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.models import A100_40G, bert_64, stage_costs
from repro.runtime import (
    AbstractCosts,
    ClusterCosts,
    ConcreteCosts,
    execute_program,
    simulate,
)
from repro.schedules import build_schedule
from repro.viz import sim_to_chrome_trace

from conftest import make_config


def sim(scheme, p=4, b=4, t_c=0.0, **run_kw):
    kw = {}
    if scheme in ("hanayo", "interleaved"):
        kw["num_waves"] = run_kw.pop("num_waves", 1)
    cfg = make_config(scheme, p, b, **kw)
    sched = build_schedule(cfg, CostConfig(t_c=t_c))
    oracle = AbstractCosts(CostConfig(t_c=t_c), p, sched.num_stages)
    return simulate(sched, oracle, RunConfig(**run_kw))


class TestCommLog:
    def test_every_send_becomes_one_transfer(self):
        res = sim("hanayo", t_c=0.1)
        assert len(res.comm) == res.program.message_count()

    def test_transfers_start_at_post_without_contention(self):
        res = sim("dapple", t_c=0.3)
        for e in res.comm:
            assert e.start == e.post
            assert e.end == pytest.approx(e.start + 0.3)

    def test_posting_order_is_monotone(self):
        res = sim("chimera", t_c=0.2)
        posts = [e.post for e in res.comm]
        assert posts == sorted(posts)

    def test_tensor_sizes_attached(self):
        sc = stage_costs(bert_64(), 4, A100_40G)
        oracle = ConcreteCosts(sc, 1e-4)
        sched = build_schedule(make_config("dapple", 4, 4))
        res = simulate(sched, oracle)
        assert all(e.nbytes == sc.boundary_bytes for e in res.comm)


class TestContention:
    def test_shared_pair_serializes(self):
        """gpipe P=2 pushes consecutive activations over one link; with
        contention they must queue instead of overlapping."""
        free = sim("gpipe", p=2, b=4, t_c=2.0)
        contended = sim("gpipe", p=2, b=4, t_c=2.0, contention=True)
        assert contended.makespan > free.makespan
        for pair in {(e.src, e.dst) for e in contended.comm}:
            spans = sorted((e.start, e.end) for e in contended.comm
                           if (e.src, e.dst) == pair)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-12

    def test_contention_never_speeds_up(self):
        for scheme in ("gpipe", "dapple", "hanayo", "chimera"):
            free = sim(scheme, t_c=0.4)
            contended = sim(scheme, t_c=0.4, contention=True)
            assert contended.makespan >= free.makespan - 1e-9

    def test_batched_sharing_waives_follower_latency(self):
        """Under contention on a real topology, opposing transfers
        posted as one batched group pay the launch latency once."""
        sched = build_schedule(make_config("hanayo", 4, 4))
        sc = stage_costs(bert_64(), sched.num_stages, A100_40G)
        oracle = ClusterCosts(sc, make_fc(4))
        batched = simulate(sched, oracle, RunConfig(contention=True,
                                                    batch_cross_comm=True))
        unbatched = simulate(sched, oracle, RunConfig(contention=True,
                                                      batch_cross_comm=False))
        wire_time = lambda r: sum(e.duration for e in r.comm)
        assert any(e.batched for e in batched.comm)
        assert not any(e.batched for e in unbatched.comm)
        assert wire_time(batched) < wire_time(unbatched)

    def test_batched_group_wakes_every_blocked_receiver(self):
        """One group posting to two blocked receivers: the time-ordered
        driver must wake both, not only the first, and time them as the
        reference interpreter does."""
        from repro.actions import BatchedP2P, Program, Recv, Send
        from repro.actions.ops import CommKind, Tag

        from support.events_ref import execute_program_reference

        to1 = Tag(CommKind.ACTIVATION, 0, 0)
        to2 = Tag(CommKind.ACTIVATION, 1, 0)
        program = Program(
            name="fan-out", num_devices=3, num_stages=3,
            num_microbatches=2, prefetch=False, batch_cross_comm=True,
            actions={0: [BatchedP2P(sends=(Send(peer=1, tag=to1),
                                           Send(peer=2, tag=to2)),
                                    recvs=())],
                     1: [Recv(peer=0, tag=to1)],
                     2: [Recv(peer=0, tag=to2)]},
            tensor_bytes={to1: 1.0, to2: 1.0})
        oracle = AbstractCosts(CostConfig(t_c=0.5), 3, 3)
        run = RunConfig(prefetch=False, contention=True)
        res = execute_program(program, oracle, run)
        ref = execute_program_reference(program, oracle, run)
        assert res.comm == ref.comm
        assert res.device_end == ref.device_end == {0: 0.0, 1: 0.5, 2: 0.5}
        assert res.recv_wait == ref.recv_wait


class TestProgramExecution:
    def test_flush_and_step_execute_at_zero_cost(self):
        sched = build_schedule(make_config("dapple", 4, 4))
        program = compile_program(sched, add_step=True)
        oracle = AbstractCosts(CostConfig(), 4, sched.num_stages)
        res = execute_program(program, oracle)
        assert all(len(res.order[d]) == len(program.actions[d])
                   for d in program.actions)
        plain = simulate(sched, oracle)
        assert res.makespan == pytest.approx(plain.makespan)

    def test_dependency_edges_cover_every_compute(self):
        for scheme in ("gpipe", "chimera", "hanayo", "async-1f1b"):
            cfg = make_config(scheme, 4, 4)
            sched = build_schedule(cfg)
            program = compile_program(sched)
            assert set(program.deps) == set(program.ops)
            remote_tags = {d.tag for edges in program.deps.values()
                           for d in edges if d.remote}
            assert remote_tags == set(program.tensor_bytes)

    def test_program_describe(self):
        program = compile_program(build_schedule(make_config("gpipe", 2, 2)))
        text = program.describe()
        assert "P=2" in text and "messages=" in text


class TestSimTraceExport:
    def test_comm_lanes_in_trace(self):
        res = sim("hanayo", t_c=0.2)
        trace = sim_to_chrome_trace(res)
        comm = [e for e in trace["traceEvents"] if e.get("cat") == "comm"]
        assert len(comm) == len(res.comm)
        assert any(e["pid"] == 1 for e in comm)
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "thread_name" and e["pid"] == 1}
        assert any("link d0" in n for n in names)

    def test_no_comm_no_network_process(self):
        res = sim("gpipe", p=1, b=2)
        trace = sim_to_chrome_trace(res)
        assert not any(e.get("pid") == 1 for e in trace["traceEvents"])
