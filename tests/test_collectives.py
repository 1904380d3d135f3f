"""Collectives in the IR: ring decomposition, timing parity, overlap.

Pins the three contracts of the collectives refactor:

* the event core's ring all-reduce on a uniform-cost topology equals
  the closed-form :func:`ring_transfer_chain` model (1e-9 relative);
* ``measure_throughput`` reports a gradient-sync overlap fraction
  computed from simulator events — the ``dp_overlap=0.9`` constant is
  gone, surviving only as the explicit ``overlap="model"`` fallback;
* the engine's program-driven chunked ring all-reduce matches the
  ``allreduce_average`` oracle (bit-for-bit at D=2, allclose beyond).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.actions import (
    CollectiveKind,
    CollectiveOp,
    ComputeBackward,
    collectives_in,
    compile_program,
    ring_pairs,
    ring_step_count,
    with_gradient_sync,
    with_tp_sync,
)
from repro.analysis import (
    ANALYTIC_DP_OVERLAP,
    HybridLayout,
    build_hybrid_simulation,
    dp_allreduce_seconds,
    dp_rank_groups,
    measure_hybrid_throughput,
    measure_throughput,
    tp_allreduce_seconds,
    tp_rank_groups,
)
from repro.cluster import get_cluster, make_fc, make_tacc
from repro.cluster.presets import Cluster
from repro.cluster.topology import NVLINK3, Topology, ring_transfer_chain
from repro.config import PipelineConfig, RunConfig
from repro.engine import (
    DataParallelPipelines,
    allreduce_average,
    make_batch,
    ring_allreduce,
)
from repro.errors import ConfigError, ValidationError
from repro.models import bert_64, stage_costs, tiny_model
from repro.runtime import ClusterCosts, execute_program, simulate_program
from repro.schedules import build_schedule
from repro.types import OpKind
from repro.viz.trace import sim_to_chrome_trace


def uniform_cluster(n: int = 8) -> Cluster:
    """All-NVLink fully-connected cluster: every ring link identical."""
    return make_fc(n)


def dp_program(cluster, scheme="dapple", p=4, b=4, d=2, run=None):
    cfg = PipelineConfig(scheme=scheme, num_devices=p, num_microbatches=b,
                        data_parallel=d)
    sched = build_schedule(cfg)
    costs = stage_costs(bert_64(), sched.num_stages, cluster.device, 1)
    run = run or RunConfig()
    program = compile_program(
        sched, prefetch=run.prefetch, batch_cross_comm=run.batch_cross_comm,
        boundary_bytes=float(costs.boundary_bytes),
    )
    groups = dp_rank_groups(cluster, p, d)
    grad_bytes = {s: w / 16.0 * 4.0
                  for s, w in enumerate(costs.weight_bytes)}
    annotated = with_gradient_sync(program, groups, grad_bytes)
    oracle = ClusterCosts(costs, cluster)
    return sched, annotated, oracle


class TestRingHelpers:
    def test_pairs_and_steps(self):
        assert ring_pairs((0, 4, 8, 12)) == ((0, 4), (4, 8), (8, 12),
                                             (12, 0))
        assert ring_pairs((3,)) == ()
        assert ring_step_count(1) == 0
        assert ring_step_count(2) == 2
        assert ring_step_count(4) == 6


class TestGradientSyncTransform:
    def test_inserts_after_last_backward(self):
        cluster = uniform_cluster()
        _sched, program, _ = dp_program(cluster)
        for device, acts in program.actions.items():
            colls = [a for a in acts if isinstance(a, CollectiveOp)]
            assert len(colls) == 1          # one resident stage
            idx = acts.index(colls[0])
            backwards = [i for i, a in enumerate(acts)
                         if isinstance(a, ComputeBackward)]
            assert idx == max(backwards) + 1
            assert colls[0].kind is CollectiveKind.GRAD_SYNC
            assert not colls[0].blocking
            assert colls[0].group == (device, device + 4)

    def test_chimera_emits_per_replica(self):
        cluster = uniform_cluster()
        _sched, program, _ = dp_program(cluster, scheme="chimera",
                                        p=4, b=4, d=2)
        for _device, acts in program.actions.items():
            colls = [a for a in acts if isinstance(a, CollectiveOp)]
            # two resident (stage, replica) pairs per device
            assert len(colls) == 2
            assert {c.replica for c in colls} == {0, 1}

    def test_d1_is_identity(self):
        cluster = uniform_cluster()
        cfg = PipelineConfig(scheme="gpipe", num_devices=4,
                            num_microbatches=4)
        sched = build_schedule(cfg)
        program = compile_program(sched)
        out = with_gradient_sync(program,
                                 {dev: (dev,) for dev in range(4)},
                                 {s: 1.0 for s in range(4)})
        assert out is program

    def test_missing_group_rejected(self):
        cluster = uniform_cluster()
        cfg = PipelineConfig(scheme="gpipe", num_devices=4,
                            num_microbatches=4)
        program = compile_program(build_schedule(cfg))
        with pytest.raises(ValidationError, match="group"):
            with_gradient_sync(program, {0: (0, 4)}, {0: 1.0})
        with pytest.raises(ValidationError, match="repeats"):
            with_gradient_sync(program,
                               {dev: (0, 0) for dev in range(4)},
                               {s: 1.0 for s in range(4)})

    def test_missing_grad_bytes_rejected(self):
        cfg = PipelineConfig(scheme="gpipe", num_devices=4,
                            num_microbatches=4)
        program = compile_program(build_schedule(cfg))
        with pytest.raises(ValidationError, match="bytes"):
            with_gradient_sync(program,
                               {dev: (dev, dev + 4) for dev in range(4)},
                               {0: 1.0})


class TestRingTimingParity:
    """Acceptance: event-core ring == closed form at 1e-9 rel tol."""

    def test_uniform_topology_matches_closed_form(self):
        cluster = uniform_cluster(8)
        for d in (2, 4):
            _sched, program, oracle = dp_program(cluster, p=8 // d, d=d,
                                                 b=4)
            res = execute_program(program, oracle)
            assert res.collectives
            for c in res.collectives:
                closed = ring_transfer_chain(cluster.topology,
                                             list(c.op.group), c.op.nbytes)
                assert c.duration == pytest.approx(closed, rel=1e-9)
                assert len(c.steps) == ring_step_count(len(c.op.group))
                # steps tile the interval back-to-back
                assert c.steps[0][0] == pytest.approx(c.start)
                assert c.steps[-1][1] == pytest.approx(c.end)

    def test_nonuniform_topology_bounded_by_slowest_link(self):
        # TACC rings cross InfiniBand: still 2(D-1) steps, each the
        # slowest-link time.
        cluster = make_tacc(8)
        _sched, program, oracle = dp_program(cluster, p=4, d=2)
        res = execute_program(program, oracle)
        for c in res.collectives:
            closed = ring_transfer_chain(cluster.topology,
                                         list(c.op.group), c.op.nbytes)
            assert c.duration == pytest.approx(closed, rel=1e-9)

    def test_contention_driver_executes_collectives(self):
        cluster = uniform_cluster(8)
        _sched, program, oracle = dp_program(cluster, p=4, d=2,
                                             run=RunConfig(contention=True))
        res = execute_program(program, oracle, RunConfig(contention=True))
        assert len(res.collectives) == 4
        assert res.sync_done() >= max(
            c.start for c in res.collectives)

    def test_same_device_collectives_serialize(self):
        # Two stages per device (chimera): the NIC cursor runs the
        # buckets back-to-back, never overlapping.
        cluster = uniform_cluster(8)
        _sched, program, oracle = dp_program(cluster, scheme="chimera",
                                             p=4, d=2)
        res = execute_program(program, oracle)
        per_device: dict[int, list] = {}
        for c in res.collectives:
            per_device.setdefault(c.device, []).append(c)
        for events in per_device.values():
            events.sort(key=lambda c: c.start)
            for a, b in zip(events, events[1:]):
                assert b.start >= a.end - 1e-12


class TestMeasuredOverlap:
    """Acceptance: overlap falls out of the event loop, not a constant."""

    def test_fc_dp2_reports_simulated_overlap(self):
        r = measure_throughput("dapple", make_fc(8), bert_64(), p=4,
                               num_microbatches=4, d=2)
        assert r.overlap_mode == "simulated"
        assert r.sync_overlap is not None
        assert 0.0 <= r.sync_overlap <= 1.0
        assert r.sync_s > 0 and r.sync_exposed_s >= 0
        assert r.sync_exposed_s <= r.sync_s + 1e-12
        # FC is uniform: per-stage ring time == closed-form upper bound
        assert r.sync_s == pytest.approx(r.sync_model_s, rel=1e-9)
        assert r.iteration_s == pytest.approx(
            r.iteration_s - r.sync_exposed_s + r.sync_exposed_s)

    def test_multi_chunk_schemes_hide_more(self):
        """The paper's Sec. 3.2 claim, now measured: schemes with
        early-finishing chunks hide more gradient sync than 1F1B."""
        flat = measure_throughput("dapple", make_fc(8), bert_64(), p=4,
                                  num_microbatches=4, d=2)
        wave = measure_throughput("hanayo", make_fc(8), bert_64(), p=4,
                                  num_microbatches=4, d=2, w=2)
        assert wave.sync_overlap > flat.sync_overlap

    def test_d1_has_no_sync(self):
        r = measure_throughput("dapple", make_fc(8), bert_64(), p=4,
                               num_microbatches=4, d=1)
        assert r.sync_s == 0.0 and r.sync_exposed_s == 0.0
        assert r.sync_overlap is None and r.sync_model_s == 0.0

    def test_model_fallback_is_explicit(self):
        r = measure_throughput("dapple", make_fc(8), bert_64(), p=4,
                               num_microbatches=4, d=2, overlap="model")
        assert r.overlap_mode == "model"
        assert r.sync_overlap == ANALYTIC_DP_OVERLAP
        assert r.sync_exposed_s == pytest.approx(
            r.sync_model_s * (1.0 - ANALYTIC_DP_OVERLAP))

    def test_unknown_overlap_mode_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            measure_throughput("dapple", make_fc(8), bert_64(), p=4,
                               num_microbatches=4, d=2, overlap="guess")
        with pytest.raises(ConfigError, match="overlap"):
            measure_hybrid_throughput(
                "dapple", make_fc(8), bert_64(), HybridLayout(1, 4, 2),
                num_microbatches=4, overlap="guess")

    def test_simulated_iteration_includes_exposure(self):
        r = measure_throughput("gpipe", make_fc(8), bert_64(), p=4,
                               num_microbatches=4, d=2)
        assert r.iteration_s >= r.sync_exposed_s
        seqs = 4 * 1 * 2
        assert r.seq_per_s == pytest.approx(seqs / r.iteration_s)


class TestLayoutValidation:
    """Satellite: rank leaks become ConfigError, not routing noise."""

    def test_dp_allreduce_rejects_oversized(self):
        with pytest.raises(ConfigError, match="rank"):
            dp_allreduce_seconds(make_fc(8), p=8, d=2,
                                 grad_bytes_per_device=1e9)

    def test_tp_allreduce_rejects_oversized(self):
        with pytest.raises(ConfigError, match="TP group"):
            tp_allreduce_seconds(make_fc(4), 8, 1e9)

    def test_dp_rank_groups_reject_out_of_cluster(self):
        with pytest.raises(ConfigError, match="references rank"):
            dp_rank_groups(make_fc(8), p=4, d=4)
        with pytest.raises(ConfigError, match="TP=2"):
            dp_rank_groups(make_fc(8), p=4, d=2, spacing=2)

    def test_tp_rank_groups_reject_out_of_cluster(self):
        with pytest.raises(ConfigError, match="references rank"):
            tp_rank_groups(make_fc(4), HybridLayout(tp=4, p=2, d=1))

    def test_valid_groups_shape(self):
        groups = dp_rank_groups(make_fc(8), p=4, d=2)
        assert groups == {g: (g, g + 4) for g in range(4)}
        spaced = dp_rank_groups(make_fc(16), p=4, d=2, spacing=2)
        assert spaced[1] == (2, 10)


class TestEngineRing:
    """Acceptance: program-driven ring == allreduce_average oracle."""

    SPEC = tiny_model(num_layers=8, hidden=16, heads=2, seq_len=6,
                      vocab=32)

    def _grads(self, d, seed=0):
        rng = np.random.default_rng(seed)
        return [
            {"a": rng.normal(size=(3, 5)), "b": rng.normal(size=(7,))}
            for _ in range(d)
        ]

    def test_ring_matches_average_bitwise_d2(self):
        grads = self._grads(2)
        ring = ring_allreduce(grads)
        avg = allreduce_average(grads)
        for name in avg:
            assert np.array_equal(ring[name], avg[name])

    def test_ring_allclose_any_d(self):
        for d in (3, 4, 5):
            grads = self._grads(d, seed=d)
            ring = ring_allreduce(grads)
            avg = allreduce_average(grads)
            for name in avg:
                np.testing.assert_allclose(ring[name], avg[name],
                                           rtol=1e-12, atol=1e-15)

    def test_quickstart_model_step_bitwise(self):
        """The engine's DP step: ring sync == oracle, bit for bit."""
        cfg = PipelineConfig(scheme="dapple", num_devices=2,
                            num_microbatches=4, data_parallel=2)
        ring = DataParallelPipelines(self.SPEC, cfg, seed=11, sync="ring")
        avg = DataParallelPipelines(self.SPEC, cfg, seed=11,
                                    sync="average")
        ins, tgs = make_batch(self.SPEC, 8, seed=5)
        r1, r2 = ring.train_step(ins, tgs), avg.train_step(ins, tgs)
        assert r1.loss == r2.loss
        assert r1.sync_collectives == 2     # one ring per stage bucket
        assert set(r1.grads) == set(r2.grads)
        for name in r2.grads:
            assert np.array_equal(r1.grads[name], r2.grads[name]), name

    def test_dp3_step_allclose(self):
        cfg = PipelineConfig(scheme="gpipe", num_devices=2,
                            num_microbatches=4, data_parallel=3)
        ring = DataParallelPipelines(self.SPEC, cfg, seed=2, sync="ring")
        avg = DataParallelPipelines(self.SPEC, cfg, seed=2,
                                    sync="average")
        ins, tgs = make_batch(self.SPEC, 12, seed=5)
        r1, r2 = ring.train_step(ins, tgs), avg.train_step(ins, tgs)
        for name in r2.grads:
            np.testing.assert_allclose(r1.grads[name], r2.grads[name],
                                       rtol=1e-12, atol=1e-14)

    def test_sync_program_carries_collectives(self):
        cfg = PipelineConfig(scheme="dapple", num_devices=2,
                            num_microbatches=2, data_parallel=2)
        dp = DataParallelPipelines(self.SPEC, cfg, seed=0)
        colls = collectives_in(dp.sync_program)
        assert colls and all(
            c.kind is CollectiveKind.GRAD_SYNC for _d, c in colls)
        assert dp.sync_stages() == [0, 1]

    def test_bad_sync_mode(self):
        cfg = PipelineConfig(scheme="gpipe", num_devices=2,
                            num_microbatches=2, data_parallel=2)
        with pytest.raises(ConfigError, match="sync"):
            DataParallelPipelines(self.SPEC, cfg, sync="quantum")

    def test_ring_identity_for_d1(self):
        grads = self._grads(1)
        out = ring_allreduce(grads)
        for name in grads[0]:
            assert np.array_equal(out[name], grads[0][name])


class TestTensorParallelCollectives:
    def test_tp_sync_blocking_and_counted(self):
        cluster = make_fc(8)
        layout = HybridLayout(tp=2, p=4, d=1)
        program = build_hybrid_simulation(
            "dapple", cluster, bert_64(), layout, num_microbatches=4,
        ).program
        colls = [c for _d, c in collectives_in(program)
                 if c.kind is CollectiveKind.TP_BOUNDARY]
        assert colls
        assert all(c.blocking for c in colls)
        # 2 all-reduces per layer per pass, 16.5 layers per stage
        assert colls[0].count == pytest.approx(2.0 * 66 / 4)

    def test_simulated_close_to_folded_model(self):
        """Blocking TP collectives ~ folding the same seconds into the
        stage durations (simulated can only be faster: comm that the
        folded model serializes after an arrival overlaps the wait)."""
        for scheme in ("gpipe", "hanayo"):
            sim = measure_hybrid_throughput(
                "dapple" if scheme == "gpipe" else scheme,
                make_fc(8), bert_64(), HybridLayout(2, 4, 1),
                num_microbatches=4, w=2 if scheme == "hanayo" else 1)
            model = measure_hybrid_throughput(
                "dapple" if scheme == "gpipe" else scheme,
                make_fc(8), bert_64(), HybridLayout(2, 4, 1),
                num_microbatches=4, w=2 if scheme == "hanayo" else 1,
                overlap="model")
            assert sim.iteration_s <= model.iteration_s * (1 + 1e-9)
            assert sim.iteration_s == pytest.approx(model.iteration_s,
                                                    rel=0.05)

    def test_hybrid_dp_overlap_measured(self):
        r = measure_hybrid_throughput(
            "hanayo", make_fc(16), bert_64(), HybridLayout(2, 4, 2),
            num_microbatches=4, w=2)
        assert not r.oom
        assert r.sync_overlap is not None and 0.0 <= r.sync_overlap <= 1.0

    def test_tp_sync_validation(self):
        cluster = make_fc(8)
        cfg = PipelineConfig(scheme="gpipe", num_devices=4,
                            num_microbatches=4)
        program = compile_program(build_schedule(cfg))
        with pytest.raises(ValidationError, match="count_per_pass"):
            with_tp_sync(program,
                         {d: (2 * d, 2 * d + 1) for d in range(4)},
                         nbytes=1.0, count_per_pass=-1.0)


class TestVizCollectiveLanes:
    def test_trace_has_collective_process(self):
        cluster = uniform_cluster(8)
        sched, program, oracle = dp_program(cluster, p=4, d=2)
        res = simulate_program(program, oracle, schedule=sched)
        trace = sim_to_chrome_trace(res, time_unit_us=1e6)
        events = trace["traceEvents"]
        procs = {e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
        assert "collectives" in procs
        spans = [e for e in events if e.get("cat") == "collective"]
        steps = [e for e in events if e.get("cat") == "collective-step"]
        assert len(spans) == 4
        assert len(steps) == 4 * ring_step_count(2)
        assert all("group" in e["args"] for e in spans)


class TestSweepAxes:
    def test_tp_axis_expands_and_runs(self):
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            schemes=("dapple",),
            clusters=(make_fc(8),),
            models=(tiny_model(num_layers=16),),
            layouts=((4, 1), (2, 2)),
            total_batches=(8,),
            waves=(1,),
            tensor_parallel=(1, 2),
        )
        points = spec.expand()
        assert {(pt.p, pt.d, pt.tp) for pt in points} == {
            (4, 1, 1), (4, 1, 2), (2, 2, 1), (2, 2, 2)}
        table = run_sweep(spec)
        assert len(table.rows) == 4
        by = {(r.p, r.d, r.tp): r for r in table.rows}
        assert not any(r.oom for r in table.rows)
        # TP=2 rows came from the hybrid harness: sharded weights
        assert (by[(4, 1, 2)].peak_mem_bytes
                < by[(4, 1, 1)].peak_mem_bytes)

    def test_pinned_tp_layout_triples_not_crossed(self):
        """(P, D, TP) layouts bind one degree; (P, D) pairs cross all.

        Guards the CLI's --dp/--tp derivation: a depth computed for
        TP=2 must not re-appear underfilled at TP=1.
        """
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            schemes=("dapple",),
            clusters=(make_fc(8),),
            models=(tiny_model(num_layers=16),),
            layouts=((4, 2, 1), (2, 2, 2)),
            total_batches=(8,),
            waves=(1,),
            tensor_parallel=(1, 2),
        )
        cells = {(pt.p, pt.d, pt.tp) for pt in spec.expand()}
        assert cells == {(4, 2, 1), (2, 2, 2)}

    def test_oversized_tp_cells_skipped(self):
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            schemes=("gpipe",),
            clusters=(make_tacc(8),),   # 3 GPUs/node: TP=4 impossible
            models=(tiny_model(num_layers=16),),
            layouts=((4, 2),),
            total_batches=(8,),
            waves=(1,),
            tensor_parallel=(1, 4),
            skip_oversized=False,
        )
        assert {pt.tp for pt in spec.expand()} == {1}

    def test_cache_roundtrip_keeps_sync_columns(self, tmp_path):
        from repro.sweep import ResultCache, SweepSpec, run_sweep

        spec = SweepSpec(
            schemes=("dapple",), clusters=(make_fc(8),),
            models=(tiny_model(num_layers=16),),
            layouts=((4, 2),), total_batches=(8,), waves=(1,),
        )
        cache = ResultCache(tmp_path / "c")
        fresh = run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        assert warm.stats.cached == warm.stats.total
        a, b = fresh.rows[0], warm.rows[0]
        assert a.sync_overlap == b.sync_overlap
        assert a.record["sync_s"] == b.record["sync_s"]
        assert (a.record["overlap_mode"] == b.record["overlap_mode"]
                == "simulated")
