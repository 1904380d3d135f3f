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
sequential computation.  That the event cores execute the program
identically to each other and to the reference interpreter is the
corpus of ``tests/test_executor_oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.config import CostConfig, RunConfig
from repro.engine import PipelineTrainer, make_batch, sequential_step
from repro.models import tiny_model
from repro.runtime import AbstractCosts, simulate_program
from repro.schedules import build_schedule

from conftest import ALL_SCHEMES, make_config, scheme_id

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
