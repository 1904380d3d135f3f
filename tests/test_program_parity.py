"""Program parity: simulator and engine execute the identical IR.

The single-execution-IR guarantee: for every schedule family, the
compiled :class:`~repro.actions.Program` is the *only* source of
execution order — the event-driven simulator replays it action for
action, and the NumPy engine's interpreters execute it action for
action over real threads and channels.  Both witnesses are compared
against the very same ``Program`` object, compiled once inside the
trainer, across the full {prefetch on/off, batching on/off} matrix.

Loss parity against :mod:`repro.engine.reference` rides along: if the
program is right, pipeline execution is a pure reordering of the
sequential computation.
"""

from __future__ import annotations

import random

import pytest

from repro.config import CostConfig, RunConfig
from repro.engine import PipelineTrainer, make_batch, sequential_step
from repro.errors import OutOfMemoryError
from repro.models import tiny_model
from repro.runtime import AbstractCosts, execute_program, simulate_program
from repro.schedules import build_schedule

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.binding import RandomCosts
from support.events_ref import execute_program_reference

P = B = 4


def spec_for(num_stages: int):
    return tiny_model(num_layers=max(num_stages, 4), hidden=8, heads=2,
                      seq_len=4, vocab=16)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestProgramParity:
    def test_sim_and_engine_execute_identical_program(
        self, param, prefetch, batching
    ):
        scheme, kw = param
        cfg = make_config(scheme, P, B, **kw)
        sched = build_schedule(cfg)
        spec = spec_for(sched.num_stages)
        trainer = PipelineTrainer(spec, cfg, seed=0, timeout_s=20,
                                  prefetch=prefetch,
                                  batch_cross_comm=batching)
        program = trainer.program

        # Simulator half: execute the very same Program object.
        costs = AbstractCosts(CostConfig(t_c=0.2), P, sched.num_stages)
        run = RunConfig(prefetch=prefetch, batch_cross_comm=batching)
        res = simulate_program(program, costs, run)
        assert res.action_order == program.actions

        # Engine half: thread workers walk the same lists.
        inputs, targets = make_batch(spec, B, seed=1)
        step = trainer.train_step(inputs, targets)
        assert trainer.action_trace == program.actions

        # And therefore: the simulator's event order IS the engine's
        # observed order, device for device, action for action.
        assert res.action_order == trainer.action_trace

        # Loss parity with the sequential reference.
        ref = sequential_step(spec, sched.num_stages, inputs, targets,
                              seed=0)
        assert step.loss == pytest.approx(ref.loss, rel=1e-9)

    def test_simulated_comm_matches_program_messages(
        self, param, prefetch, batching
    ):
        """Every wire message the simulator times is a program send."""
        scheme, kw = param
        cfg = make_config(scheme, P, B, **kw)
        sched = build_schedule(cfg)
        from repro.actions import compile_program

        program = compile_program(sched, prefetch=prefetch,
                                  batch_cross_comm=batching)
        costs = AbstractCosts(CostConfig(t_c=0.1), P, sched.num_stages)
        res = simulate_program(
            program, costs, RunConfig(prefetch=prefetch,
                                      batch_cross_comm=batching))
        assert len(res.comm) == program.message_count()
        assert {e.tag for e in res.comm} == set(program.tensor_bytes)


@pytest.mark.parametrize("contention", [False, True],
                         ids=["greedy", "timeord"])
@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestLoweredCoreParity:
    """The lowered event core is *bit-identical* to the pre-refactor
    interpreter (support/events_ref.py) — every span, wait, transfer,
    watermark and collective, across both drivers."""

    def test_bit_identical_to_reference_core(self, param, prefetch,
                                             batching, contention):
        from repro.actions import compile_program
        from repro.actions.resources import StageResources

        scheme, kw = param
        cfg = make_config(scheme, P, B, **kw)
        sched = build_schedule(cfg)
        resources = StageResources(
            weight_bytes=(100.0,) * sched.num_stages,
            activation_bytes=(10.0,) * sched.num_stages,
        )
        program = compile_program(sched, prefetch=prefetch,
                                  batch_cross_comm=batching,
                                  resources=resources)
        costs = AbstractCosts(CostConfig(t_f=1.0, t_b=2.0, t_c=0.25), P,
                              sched.num_stages)
        run = RunConfig(prefetch=prefetch, batch_cross_comm=batching,
                        contention=contention)
        new = execute_program(program, costs, run)
        ref = execute_program_reference(program, costs, run)
        assert new.timeline.spans == ref.timeline.spans
        assert new.recv_wait == ref.recv_wait
        assert new.comm == ref.comm
        assert new.order == ref.order
        assert new.mem_peak == ref.mem_peak
        assert new.mem_events == ref.mem_events
        assert new.collectives == ref.collectives
        assert new.device_end == ref.device_end


def random_cost_program(scheme, kw, prefetch, batching, seed, b=B):
    """A resource-annotated program with seeded stage bytes, and its
    :class:`RandomCosts` oracle."""
    from repro.actions import compile_program
    from repro.actions.resources import StageResources

    sched = build_schedule(make_config(scheme, P, b, **kw))
    rng = random.Random(seed)
    stages = sched.num_stages
    resources = StageResources(
        weight_bytes=tuple(rng.choice((64.0, 96.0, 128.0))
                           for _ in range(stages)),
        activation_bytes=tuple(rng.choice((8.0, 12.0, 16.0, 24.0))
                               for _ in range(stages)),
    )
    program = compile_program(sched, prefetch=prefetch,
                              batch_cross_comm=batching,
                              resources=resources)
    return program, RandomCosts(seed, P, stages, b)


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestContendedRandomCostParity:
    """The time-ordered driver against the reference interpreter under
    irregular costs: devices block while others post, heads tie
    irregularly, and zero-time pairs bypass the wire."""

    SEEDS = range(8)

    def test_bit_identical_to_reference_core(self, param, prefetch,
                                             batching):
        scheme, kw = param
        run = RunConfig(prefetch=prefetch, batch_cross_comm=batching,
                        contention=True)
        for seed in self.SEEDS:
            program, costs = random_cost_program(scheme, kw, prefetch,
                                                 batching, seed)
            new = execute_program(program, costs, run)
            ref = execute_program_reference(program, costs, run)
            assert new.timeline.spans == ref.timeline.spans, seed
            assert new.recv_wait == ref.recv_wait, seed
            assert new.comm == ref.comm, seed
            assert new.order == ref.order, seed
            assert new.mem_peak == ref.mem_peak, seed
            assert new.mem_events == ref.mem_events, seed
            assert new.collectives == ref.collectives, seed
            assert new.device_end == ref.device_end, seed

    def test_mid_run_oom_attribution_matches_reference(self, param,
                                                        prefetch, batching):
        """A mid-run abort observes the driver's pop order: which device
        violates first, at what watermark.  Capacities lie strictly
        between static residency and the uncapped peak; one just under
        each device's peak makes every higher-peaked device a candidate
        violator too."""
        scheme, kw = param
        run = RunConfig(prefetch=prefetch, batch_cross_comm=batching,
                        contention=True)
        program, costs = random_cost_program(scheme, kw, prefetch,
                                             batching, seed=2, b=8)
        static = max(program.static_bytes.values())
        peaks = execute_program(program, costs, run).mem_peak.values()
        peak = max(peaks)
        capacities = sorted(
            c for c in ({int(p) - 1 for p in peaks}
                        | {int(static + f * (peak - static))
                           for f in (0.2, 0.5, 0.8)})
            if static < c < peak)
        assert capacities
        for cap in capacities:
            with pytest.raises(OutOfMemoryError) as new:
                execute_program(program, costs, run, capacity_bytes=cap)
            with pytest.raises(OutOfMemoryError) as ref:
                execute_program_reference(program, costs, run,
                                          capacity_bytes=cap)
            got = (new.value.device, new.value.peak_bytes,
                   new.value.capacity_bytes)
            want = (ref.value.device, ref.value.peak_bytes,
                    ref.value.capacity_bytes)
            assert got == want, cap


class TestLoweredCoreParityWithCollectives:
    """Cluster programs with DP gradient rings + TP boundary
    all-reduces: the lowered core must reproduce the reference core's
    collective schedules exactly, contention included."""

    @pytest.mark.parametrize("contention", [False, True],
                             ids=["greedy", "timeord"])
    @pytest.mark.parametrize("scheme", ["gpipe", "hanayo", "chimera-wave"])
    def test_dp_tp_program_bit_identical(self, scheme, contention):
        from repro.analysis import (
            HybridLayout,
            build_hybrid_simulation,
            plan_cache,
        )
        from repro.cluster import make_fc
        from repro.models import tiny_model as tm

        plan_cache().clear()
        cell = build_hybrid_simulation(
            scheme, make_fc(8), tm(num_layers=16),
            HybridLayout(tp=2, p=2, d=2), num_microbatches=4,
        )
        run = RunConfig(contention=contention)
        new = execute_program(cell.program, cell.oracle, run)
        ref = execute_program_reference(cell.program, cell.oracle, run)
        assert new.timeline.spans == ref.timeline.spans
        assert new.recv_wait == ref.recv_wait
        assert new.comm == ref.comm
        assert new.mem_peak == ref.mem_peak
        assert new.mem_events == ref.mem_events
        assert new.collectives == ref.collectives
        assert new.device_end == ref.device_end


class TestEngineConsumesProgramOnly:
    def test_executor_module_has_no_schedule_dependency(self):
        """The acceptance criterion, pinned: the NumPy executor neither
        imports nor receives a Schedule — it consumes the Program IR."""
        import inspect

        import repro.engine.executor as executor_mod

        source = inspect.getsource(executor_mod)
        assert "schedules" not in source          # no schedule imports
        assert ".placement" not in source         # no placement lookups
        assert "device_of" not in source          # no comm re-derivation
        assert "replica_of" not in source
        assert not hasattr(executor_mod, "Schedule")

    def test_messages_sent_matches_program_message_count(self):
        cfg = make_config("chimera", 4, 4)
        sched = build_schedule(cfg)
        spec = spec_for(sched.num_stages)
        trainer = PipelineTrainer(spec, cfg, seed=3, timeout_s=20)
        inputs, targets = make_batch(spec, 4, seed=2)
        res = trainer.train_step(inputs, targets)
        assert res.messages_sent == trainer.program.message_count()
