"""Memory as a first-class runtime resource.

Covers the resource-annotated Program IR, the event core's live
watermarks (byte-identical to the offline replay on every schedule
family), capacity enforcement (static O(P) pre-check + first-violation
abort), OOM pruning in the analysis/sweep layers, the recompute
transform, and the closed-form units cross-check.
"""

import pytest

from repro.actions import StageResources, compile_program
from repro.analysis.memory_model import activation_units, weight_units
from repro.analysis.throughput import measure_throughput
from repro.cluster import make_tacc
from repro.config import CostConfig, RunConfig
from repro.errors import ConfigError, OutOfMemoryError, SchedulingError
from repro.models import A100_40G, bert_64, stage_costs
from repro.runtime import (
    AbstractCosts,
    memory_stats,
    memory_stats_from_result,
    simulate,
)
from repro.schedules import build_schedule
from repro.sweep import SweepSpec, run_sweep

from conftest import ALL_SCHEMES, make_config, scheme_id


def annotated(scheme, p=4, b=4, run=None, capacity=None, balanced=True,
              oracle=None, **kw):
    """Simulate with a resource-annotated program; return the triple."""
    cfg = make_config(scheme, p, b, **kw)
    sched = build_schedule(cfg)
    costs = stage_costs(bert_64(), sched.num_stages, A100_40G,
                        balanced=balanced)
    oracle = oracle or AbstractCosts(CostConfig(), p, sched.num_stages)
    res = simulate(sched, oracle, run,
                   resources=StageResources.from_stage_costs(costs),
                   capacity_bytes=capacity)
    return sched, costs, res


class CountingCosts(AbstractCosts):
    """Counts event-loop compute timings — the 'did we simulate' probe."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = 0

    def duration(self, op):
        self.calls += 1
        return super().duration(op)

    def stage_durations(self):
        self.calls += 1
        return super().stage_durations()


class TestWatermarkParity:
    """Runtime watermarks == offline replay, byte for byte (tentpole)."""

    @pytest.mark.parametrize("case", ALL_SCHEMES, ids=scheme_id)
    def test_peaks_byte_identical_to_replay(self, case):
        scheme, kw = case
        sched, costs, res = annotated(scheme, **kw)
        replay = memory_stats(sched, res.timeline, costs)
        assert res.memory.peak_bytes == replay.peak_bytes
        assert res.memory.static_bytes == replay.static_bytes

    @pytest.mark.parametrize("case", [("dapple", {}),
                                      ("hanayo", {"num_waves": 2})],
                             ids=scheme_id)
    def test_parity_with_unbalanced_stages(self, case):
        """Different per-stage byte columns, same accumulation order."""
        scheme, kw = case
        sched, costs, res = annotated(scheme, balanced=False, **kw)
        replay = memory_stats(sched, res.timeline, costs)
        assert res.memory.peak_bytes == replay.peak_bytes

    @pytest.mark.parametrize("run", [RunConfig(prefetch=False),
                                     RunConfig(contention=True)],
                             ids=["no-prefetch", "contention"])
    def test_parity_across_execution_modes(self, run):
        """Per-device delta order is program order in every driver."""
        sched, costs, res = annotated("hanayo", num_waves=2, run=run)
        replay = memory_stats(sched, res.timeline, costs)
        assert res.memory.peak_bytes == replay.peak_bytes

    def test_thin_reader_returns_live_stats(self):
        _, _, res = annotated("gpipe")
        assert memory_stats_from_result(res) is res.memory

    def test_thin_reader_needs_resources(self):
        cfg = make_config("gpipe")
        sched = build_schedule(cfg)
        res = simulate(sched, AbstractCosts(CostConfig(), 4, sched.num_stages))
        assert res.memory is None
        with pytest.raises(ConfigError, match="no memory watermarks"):
            memory_stats_from_result(res)

    def test_mem_events_balance_to_static(self):
        """Every alloc has a matching free; levels return to static."""
        _, costs, res = annotated("chimera", p=4, b=4)
        total = sum(e.delta for e in res.mem_events)
        assert total == pytest.approx(0.0, abs=64.0)
        allocs = [e for e in res.mem_events if e.delta > 0]
        frees = [e for e in res.mem_events if e.delta < 0]
        assert len(allocs) == len(frees) == res.program.compute_count() // 2


class TestCapacityEnforcement:
    def _static_peak(self, res):
        return max(res.memory.static_bytes.values())

    def test_static_precheck_skips_event_loop(self):
        """Statically-infeasible programs are rejected in O(P): the cost
        oracle is never consulted."""
        _, _, full = annotated("gpipe", p=4, b=8)
        cap = int(self._static_peak(full) * 0.5)
        oracle = CountingCosts(CostConfig(), 4, 4)
        with pytest.raises(OutOfMemoryError) as exc:
            annotated("gpipe", p=4, b=8, capacity=cap, oracle=oracle)
        assert oracle.calls == 0
        assert exc.value.device == 0

    def test_error_message_carries_device_peak_capacity(self):
        err = OutOfMemoryError(3, 100 * 2**30, 40 * 2**30)
        assert err.device == 3
        assert err.peak_bytes == 100 * 2**30
        assert err.capacity_bytes == 40 * 2**30
        msg = str(err)
        assert "device 3" in msg
        assert "100.00 GiB" in msg
        assert "capacity 40.00 GiB" in msg

    def test_live_abort_error_fields(self):
        _, costs, full = annotated("gpipe", p=4, b=8)
        cap = int(self._static_peak(full) + 1.5 * costs.activation_bytes[0])
        with pytest.raises(OutOfMemoryError) as exc:
            annotated("gpipe", p=4, b=8, capacity=cap)
        assert exc.value.device in full.memory.peak_bytes
        assert exc.value.capacity_bytes == cap
        assert f"device {exc.value.device}" in str(exc.value)

    def test_capacity_requires_resources(self):
        sched = build_schedule(make_config("gpipe"))
        with pytest.raises(SchedulingError, match="resource-annotated"):
            simulate(sched, AbstractCosts(CostConfig(), 4, 4),
                     capacity_bytes=1)

    def test_generous_capacity_completes(self):
        _, _, full = annotated("gpipe", p=4, b=8)
        cap = int(full.memory.highest_peak) + 1
        _, _, again = annotated("gpipe", p=4, b=8, capacity=cap)
        assert again.memory.peak_bytes == full.memory.peak_bytes


class TestProgramResources:
    def test_compile_attaches_static_and_deltas(self):
        sched = build_schedule(make_config("chimera"))
        costs = stage_costs(bert_64(), sched.num_stages, A100_40G)
        program = compile_program(
            sched, resources=StageResources.from_stage_costs(costs))
        assert program.tracks_memory
        # Chimera: every device hosts both replicas' stages -> 2x static
        per_stage = costs.weight_bytes[0]
        for device, static in program.static_bytes.items():
            assert static == pytest.approx(2 * per_stage)
        from repro.types import OpKind
        key_f = (OpKind.FORWARD, 0, 0)
        key_b = (OpKind.BACKWARD, 0, 0)
        assert program.alloc_bytes(key_f) == costs.activation_bytes[0]
        assert program.free_bytes(key_f) == 0.0
        assert program.alloc_bytes(key_b) == 0.0
        assert program.free_bytes(key_b) == costs.activation_bytes[0]

    def test_unannotated_program_has_no_memory(self):
        sched = build_schedule(make_config("gpipe"))
        program = compile_program(sched)
        assert not program.tracks_memory
        assert program.static_bytes == {}
        program.check_static_memory(1)  # vacuous

    def test_with_resources_reannotates(self):
        sched = build_schedule(make_config("dapple"))
        costs = stage_costs(bert_64(), sched.num_stages, A100_40G)
        bare = compile_program(sched)
        rich = bare.with_resources(StageResources.from_stage_costs(costs))
        assert rich.actions is bare.actions  # memory is orthogonal
        assert rich.static_bytes and not bare.static_bytes
        assert rich.with_resources(None).static_bytes == {}

    def test_stage_count_mismatch_rejected(self):
        from repro.errors import ValidationError
        sched = build_schedule(make_config("dapple"))
        bad = StageResources(weight_bytes=(1.0,), activation_bytes=(1.0,))
        with pytest.raises(ValidationError, match="stages"):
            compile_program(sched, resources=bad)

    def test_check_static_memory_picks_lowest_device(self):
        sched = build_schedule(make_config("gpipe"))
        costs = stage_costs(bert_64(), sched.num_stages, A100_40G)
        program = compile_program(
            sched, resources=StageResources.from_stage_costs(costs))
        with pytest.raises(OutOfMemoryError) as exc:
            program.check_static_memory(1)
        assert exc.value.device == 0


class TestRecomputeTransform:
    def test_recompute_shrinks_to_boundary(self):
        costs = stage_costs(bert_64(), 4, A100_40G)
        res = StageResources.from_stage_costs(costs)
        ckpt = res.with_recompute()
        assert ckpt.activation_bytes == (costs.boundary_bytes,) * 4
        assert ckpt.weight_bytes == res.weight_bytes

    def test_program_level_transform_matches_cost_model(self):
        """with_recompute() == the byte columns of
        stage_costs(recompute=True), applied as a Program transform."""
        sched = build_schedule(make_config("gpipe", 4, 6))
        full = stage_costs(bert_64(), sched.num_stages, A100_40G)
        ckpt_costs = stage_costs(bert_64(), sched.num_stages, A100_40G,
                                 recompute=True)
        resources = StageResources.from_stage_costs(full).with_recompute()
        res = simulate(sched, AbstractCosts(CostConfig(), 4, 4),
                       resources=resources)
        replay = memory_stats(sched, res.timeline, ckpt_costs)
        assert res.memory.peak_bytes == replay.peak_bytes
        # GPipe under recompute: B boundary tensors live at peak
        act = res.memory.highest_peak - max(res.memory.static_bytes.values())
        assert act == pytest.approx(6 * full.boundary_bytes)


class TestAnalysisPruning:
    """OOM cells never pay a full simulation (fast-path satellite)."""

    def _count_simulations(self):
        """Lanes the batched runtime executes from here on — batched
        (a lone cell is a batch of one) or scalar, by its own counters."""
        from repro import profiling

        stats = profiling.batching_stats()
        before = stats.lanes + stats.scalar_cells
        return lambda: stats.lanes + stats.scalar_cells - before

    def test_static_infeasible_cell_never_simulates(self):
        executed = self._count_simulations()
        r = measure_throughput("gpipe", make_tacc(8), bert_64(), p=8,
                               num_microbatches=8,
                               capacity_bytes=1 * 2**30)
        assert r.oom and r.statically_pruned
        assert r.oom_device == 0
        assert r.seq_per_s is None and r.bubble_ratio is None
        assert "static" in r.describe()
        assert executed() == 0

    def test_runtime_oom_aborts_with_watermark_peak(self):
        # bert on 40 GB cards with a deep micro-batch backlog: static
        # fits, activations do not (the seed's OOM regression case)
        r = measure_throughput("gpipe", make_tacc(8), bert_64(), p=8,
                               num_microbatches=32, microbatch_size=8)
        assert r.oom and not r.statically_pruned
        assert r.oom_device is not None
        assert r.peak_mem_bytes > make_tacc(8).device.memory_bytes

    def test_capacity_constrained_search_prunes(self):
        """Fig. 10-style acceptance: a capacity-constrained grid does
        measurably fewer event-loop runs; pruned count > 0."""
        executed = self._count_simulations()
        spec = SweepSpec(
            schemes=("gpipe", "dapple", "hanayo"),
            clusters=(make_tacc(8),),
            models=(bert_64(),),
            layouts=((8, 1), (4, 2)),
            total_batches=(16,),
            waves=(1, 2),
            capacity_bytes=10 * 2**30,   # below bert's static on P<=8
        )
        table = run_sweep(spec)
        assert table.stats.pruned > 0
        assert executed() < table.stats.total
        assert executed() == table.stats.total - table.stats.pruned
        assert all(row.oom for row in table.rows
                   if row.statically_pruned)
        assert "OOM-pruned" in table.stats.describe()

    def test_hybrid_static_precheck(self):
        from repro.analysis.hybrid import HybridLayout, \
            measure_hybrid_throughput
        tiny_cap = make_tacc(8)
        # shrink the modeled card to force a static reject
        import dataclasses
        device = dataclasses.replace(tiny_cap.device,
                                     memory_bytes=1 * 2**30)
        cluster = dataclasses.replace(tiny_cap, device=device)
        r = measure_hybrid_throughput(
            "dapple", cluster, bert_64(), HybridLayout(tp=1, p=8, d=1),
            num_microbatches=8)
        assert r.oom and r.statically_pruned


class TestClosedFormCrossCheck:
    """analysis.memory_model units vs byte-accurate runtime watermarks.

    Conventions differ per family (the closed form mirrors the paper's
    Fig. 2/3 axes): for the unidirectional device-load families the
    match is exact; the bidirectional and interleaved forms count in
    whole-model / per-wave units and are upper bounds after the
    documented unit translation.
    """

    #: (scheme label, build kwargs, closed-form waves arg)
    CASES = [
        ("gpipe", {}, 1),
        ("dapple", {}, 1),
        ("gems", {}, 1),
        ("chimera", {}, 1),
        ("chimera-wave", {}, 1),
        ("hanayo", {"num_waves": 1}, 1),
        ("hanayo", {"num_waves": 2}, 2),
        ("interleaved", {"num_waves": 1}, 1),
        ("interleaved", {"num_waves": 2}, 2),
        ("async-1f1b", {}, 1),
    ]

    def _measured_units(self, scheme, kw, p=4, b=4):
        sched, costs, res = annotated(scheme, p=p, b=b, **kw)
        mem = res.memory
        act_unit = sum(costs.activation_bytes) / p
        weight_unit = sum(costs.weight_bytes) / p
        meas_w = max(mem.static_bytes.values()) / weight_unit
        meas_a = max(mem.peak_bytes[d] - mem.static_bytes[d]
                     for d in mem.peak_bytes) / act_unit
        return meas_w, meas_a

    @pytest.mark.parametrize("scheme,kw,w", CASES,
                             ids=[scheme_id((s, k)) for s, k, _ in CASES])
    def test_weight_units_match_watermarks(self, scheme, kw, w):
        meas_w, _ = self._measured_units(scheme, kw)
        assert meas_w == pytest.approx(weight_units(scheme))

    @pytest.mark.parametrize("scheme,kw,w", CASES,
                             ids=[scheme_id((s, k)) for s, k, _ in CASES])
    def test_activation_units_cross_check(self, scheme, kw, w):
        p = b = 4
        _, meas_a = self._measured_units(scheme, kw, p, b)
        closed = activation_units(scheme, p, b, w)
        if scheme in ("gpipe", "dapple", "hanayo", "chimera-wave",
                      "async-1f1b"):
            # device-load convention: exact match
            assert meas_a == pytest.approx(closed)
        elif scheme == "gems":
            # whole-model convention (2/P + 1/P): bound after x P
            assert meas_a <= closed * p + 1e-9
        elif scheme == "chimera":
            # two-chunk device-load convention: bound after x 2
            assert meas_a <= closed * 2 + 1e-9
        else:  # interleaved: per-wave convention, bound after x W
            assert meas_a <= closed * w + 1e-9

    def test_two_wave_budget_equals_one_wave(self):
        """Hanayo spends the same worst-device budget at W=1 and W=2 —
        the byte model confirms the closed form's wave independence."""
        _, one = self._measured_units("hanayo", {"num_waves": 1})
        _, two = self._measured_units("hanayo", {"num_waves": 2})
        assert one == pytest.approx(two)
