"""Final coverage pass: smaller behaviours not exercised elsewhere."""

import numpy as np
import pytest

from repro.analysis import activation_units, gems_bubble_ratio
from repro.config import CostConfig, PipelineConfig
from repro.engine import (
    DataParallelPipelines,
    build_stages,
    make_batch,
    sequential_step_on,
)
from repro.errors import ConfigError, EngineError
from repro.models import A100_40G, bert_64, stage_costs, tiny_model
from repro.runtime import AbstractCosts, ConcreteCosts, kind_time, simulate
from repro.runtime.costs import CostOracle
from repro.schedules import build_schedule, gems_schedule
from repro.types import OpKind

from conftest import make_config

SPEC = tiny_model(num_layers=4, hidden=8, heads=2, seq_len=4, vocab=16)


class TestSequentialReference:
    def test_grads_accumulate_across_steps(self):
        stages = build_stages(SPEC, 2, seed=0)
        inputs, targets = make_batch(SPEC, 2, seed=1)
        first = sequential_step_on(stages, inputs, targets)
        snap = {k: v.copy() for k, v in first.grads.items()}
        second = sequential_step_on(stages, inputs, targets)
        for k in snap:
            np.testing.assert_allclose(second.grads[k], 2 * snap[k],
                                       rtol=1e-12)

    def test_loss_deterministic(self):
        inputs, targets = make_batch(SPEC, 2, seed=1)
        a = sequential_step_on(build_stages(SPEC, 1, seed=0),
                               inputs, targets)
        b = sequential_step_on(build_stages(SPEC, 1, seed=0),
                               inputs, targets)
        assert a.loss == b.loss


class TestDataParallelShapes:
    def test_wrong_shard_count_rejected(self):
        cfg = PipelineConfig(scheme="dapple", num_devices=2,
                             num_microbatches=2, data_parallel=2)
        dp = DataParallelPipelines(SPEC, cfg, seed=0)
        inputs, targets = make_batch(SPEC, 3, seed=0)  # needs 4
        with pytest.raises(EngineError, match="micro-batches"):
            dp.train_step(inputs, targets)

    def test_replicas_start_identical(self):
        cfg = PipelineConfig(scheme="dapple", num_devices=2,
                             num_microbatches=2, data_parallel=2)
        dp = DataParallelPipelines(SPEC, cfg, seed=0)
        a = dp.trainers[0].parameter_stages()[0].named_params()
        b = dp.trainers[1].parameter_stages()[0].named_params()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestGemsStructure:
    def test_direction_alternation(self):
        sched = gems_schedule(make_config("gems", 4, 6))
        assert [sched.replica_of(m) for m in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_gems_bubble_grows_with_depth(self):
        assert gems_bubble_ratio(16) > gems_bubble_ratio(4)

    def test_gems_memory_is_minimal(self):
        assert activation_units("gems", 8, 8) < activation_units(
            "dapple", 8, 8
        ) / 4


class TestFlatCostsEdges:
    """Per-message oracles: every boundary tensor costs ``t_c``, with no
    latency split, whichever pair it crosses."""

    FLAT = ConcreteCosts(stage_costs(bert_64(), 4, A100_40G), 0.5)

    def test_flat_links_ignore_the_pair(self):
        oracle = self.FLAT
        assert {oracle.link(a, b) for a, b in [(0, 1), (1, 0), (0, 3),
                                               (7, 2)]} == {(0.5, 0.0)}

    def test_flat_collective_self_step_is_free(self):
        oracle = self.FLAT
        assert oracle.collective_link_time(2, 2, 99) == 0.0
        assert oracle.collective_link_time(0, 1, 99) == 0.5

    def test_abstract_links_are_t_c(self):
        oracle = AbstractCosts(CostConfig(t_c=0.25), 4, 8)
        assert oracle.link(0, 1) == (0.25, 0.0)
        assert oracle.collective_link_time(3, 3, 1.0) == 0.0
        assert oracle.collective_link_time(3, 0, 1.0) == 0.25

    def test_oracle_without_a_route_cannot_time_collectives(self):
        class Tables(CostOracle):
            _tables = ((1.0,), (2.0,))

        with pytest.raises(ConfigError, match="Tables cannot time "
                                              "collectives"):
            Tables().collective_link_time(0, 1, 1.0)


class TestKindTimeAccounting:
    def test_forward_backward_split(self):
        sched = build_schedule(make_config("hanayo", 4, 4, num_waves=2))
        res = simulate(sched, AbstractCosts(CostConfig(), 4,
                                            sched.num_stages))
        fwd = kind_time(res.timeline, OpKind.FORWARD)
        bwd = kind_time(res.timeline, OpKind.BACKWARD)
        assert bwd == pytest.approx(2 * fwd)


class TestAbstractCostsValidation:
    def test_indivisible_stage_count_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            AbstractCosts(CostConfig(), num_devices=4, num_stages=6)

    def test_per_chunk_duration(self):
        sched = build_schedule(make_config("hanayo", 4, 4, num_waves=2))
        costs = AbstractCosts(CostConfig(), 4, sched.num_stages)
        op = sched.all_ops()[0]
        # 16 stages on 4 devices -> each chunk is T_F / 4
        expected = (1.0 if op.kind is OpKind.FORWARD else 2.0) / 4
        forward, backward = costs.stage_durations()
        table = forward if op.kind is OpKind.FORWARD else backward
        assert table[op.stage] == pytest.approx(expected)


class TestScheduleDescribe:
    def test_describe_strings(self):
        sched = build_schedule(make_config("chimera", 4, 4))
        text = sched.describe()
        assert "chimera" in text and "P=4" in text

    def test_gantt_stage_mode(self):
        from repro.viz import render_gantt
        sched = build_schedule(make_config("dapple", 2, 2))
        res = simulate(sched, AbstractCosts(CostConfig(), 2, 2))
        out = render_gantt(res.timeline, width=40, show_stage=True)
        assert "#" in out  # backward marker in stage mode
