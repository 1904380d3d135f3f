"""Lowering round-trip and plan semantics (actions/lowering.py).

The ExecutablePlan is only allowed to change *representation*, never
meaning: it must decode back to the source Program action-for-action
across every schedule family and compile mode, carry the program's
resource deltas verbatim, key structurally identical programs equally,
and re-time against new oracles without touching structure.
"""

from __future__ import annotations

import pytest

from repro.actions import (
    CollectiveOp,
    ExecutablePlan,
    StageResources,
    compile_program,
)
from repro.analysis import compile_cluster_program
from repro.cluster import make_fc
from repro.config import CostConfig, PipelineConfig, RunConfig
from repro.errors import OutOfMemoryError, SchedulingError
from repro.models import tiny_model
from repro.models.costs import stage_costs
from repro.runtime import (
    AbstractCosts,
    execute_many,
    execute_plan,
    execute_program,
)
from repro.types import OpKind

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.binding import reference_binding

P = B = 4


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestRoundTrip:
    def test_decode_matches_program_action_for_action(
        self, param, prefetch, batching
    ):
        """The satellite acceptance: every family × prefetch mode
        decodes from the flat arrays back to the exact source lists."""
        from repro.schedules import build_schedule

        scheme, kw = param
        cfg = make_config(scheme, P, B, **kw)
        program = compile_program(build_schedule(cfg), prefetch=prefetch,
                                  batch_cross_comm=batching)
        plan = ExecutablePlan.lower(program)
        assert plan.decode() == program.actions
        assert plan.n_actions == program.action_count()
        assert plan.n_computes == program.compute_count()

    def test_plan_key_stable_and_structural(self, param, prefetch, batching):
        """Two independent lowerings of the same program share a key;
        the key is a hex digest (content hash, seed-independent)."""
        from repro.schedules import build_schedule

        scheme, kw = param
        cfg = make_config(scheme, P, B, **kw)
        sched = build_schedule(cfg)
        k1 = ExecutablePlan.lower(
            compile_program(sched, prefetch=prefetch,
                            batch_cross_comm=batching)).plan_key
        k2 = ExecutablePlan.lower(
            compile_program(sched, prefetch=prefetch,
                            batch_cross_comm=batching)).plan_key
        assert k1 == k2
        assert len(k1) == 64 and int(k1, 16) >= 0


class TestPlanKey:
    def _key(self, scheme="gpipe", b=B, prefetch=True):
        from repro.schedules import build_schedule

        cfg = make_config(scheme, P, b)
        return ExecutablePlan.lower(
            compile_program(build_schedule(cfg), prefetch=prefetch)
        ).plan_key

    def test_key_separates_structures(self):
        base = self._key()
        assert base != self._key(scheme="dapple")
        assert base != self._key(b=B * 2)
        assert base != self._key(prefetch=False)

    def test_key_process_stable(self):
        """sha256 over canonical content — re-lowered keys are equal in
        this process and, by construction, across PYTHONHASHSEEDs."""
        assert self._key() == self._key()


class TestCollectivesRoundTrip:
    def _dp_program(self):
        from repro.schedules import build_schedule

        cluster = make_fc(8)
        model = tiny_model(num_layers=16)
        cfg = PipelineConfig(scheme="hanayo", num_devices=4,
                             num_microbatches=4, data_parallel=2)
        sched = build_schedule(cfg)
        costs = stage_costs(model, sched.num_stages, cluster.device, 1)
        return compile_cluster_program(sched, cluster, costs, d=2), costs

    def test_collective_program_round_trips(self):
        program, _ = self._dp_program()
        assert any(isinstance(a, CollectiveOp)
                   for acts in program.actions.values() for a in acts)
        plan = ExecutablePlan.lower(program)
        assert plan.decode() == program.actions
        assert len(plan.coll_ops) > 0

    def test_resource_deltas_match_program(self):
        program, _ = self._dp_program()
        plan = ExecutablePlan.lower(program)
        for cid, key in enumerate(plan.comp_keys):
            assert plan.comp_alloc[cid] == program.alloc_bytes(key)
            assert plan.comp_free[cid] == program.free_bytes(key)
            if key[0] is OpKind.FORWARD:
                assert plan.comp_alloc[cid] > 0.0


class TestBindingAndRetime:
    def _plan_and_oracles(self):
        from repro.schedules import build_schedule

        cfg = make_config("chimera", P, B)
        sched = build_schedule(cfg)
        program = compile_program(sched)
        slow = AbstractCosts(CostConfig(t_c=0.5), P, sched.num_stages)
        fast = AbstractCosts(CostConfig(t_f=0.5, t_b=1.0, t_c=0.1), P,
                             sched.num_stages)
        return program, slow, fast

    def test_unbound_plan_refuses_execution(self):
        program, _, _ = self._plan_and_oracles()
        plan = ExecutablePlan.lower(program)
        assert not plan.bound
        with pytest.raises(SchedulingError, match="not cost-bound"):
            execute_plan(plan)

    def test_retime_shares_structure(self):
        program, slow, fast = self._plan_and_oracles()
        plan = ExecutablePlan.lower(program, slow)
        again = plan.retime(fast)
        assert again.comp_ops is plan.comp_ops
        assert again.dep_ptr is plan.dep_ptr
        assert again.codes is plan.codes
        assert again.plan_key == plan.plan_key
        assert again.costs is fast

    def test_retimed_plan_matches_fresh_execution(self):
        """Cost-only re-binding must equal lowering from scratch —
        the contract the sweep plan cache rests on."""
        program, slow, fast = self._plan_and_oracles()
        run = RunConfig(contention=True)
        cached = ExecutablePlan.lower(program, slow)
        via_retime = execute_plan(cached.retime(fast), run)
        fresh = execute_program(program, fast, run)
        assert via_retime.timeline.spans == fresh.timeline.spans
        assert via_retime.recv_wait == fresh.recv_wait
        assert via_retime.comm == fresh.comm
        assert via_retime.device_end == fresh.device_end

    def test_wire_interning_follows_global_ranks(self):
        """Wires live in global-rank space: a spaced rank map must not
        alias distinct physical links onto one wire id."""
        program, slow, _ = self._plan_and_oracles()

        class Spaced(AbstractCosts):
            def global_rank(self, device: int) -> int:
                return device * 2

        spaced = Spaced(CostConfig(t_c=0.5), P, program.num_stages)
        plan = ExecutablePlan.lower(program, slow)
        respaced = plan.retime(spaced)
        assert respaced.global_ranks == (0, 2, 4, 6)
        assert respaced.n_wires == plan.n_wires  # same pair structure

    def test_unknown_device_decode_raises(self):
        program, slow, _ = self._plan_and_oracles()
        plan = ExecutablePlan.lower(program, slow)
        with pytest.raises(SchedulingError, match="no device 99"):
            plan.decode_actions(99)


class TestEagerDurations:
    def test_retime_asks_each_table_once_and_each_link_once(self):
        """Costs bind at retime: per lane, one ``stage_durations()`` and
        one ``link`` per distinct ``(src, dst)`` pair, in first-send
        order, and no question from any execution — completed,
        repeated or aborted."""
        calls = []

        class Counting(AbstractCosts):
            def stage_durations(self):
                calls.append("tables")
                return super().stage_durations()

            def link(self, a, b):
                calls.append((a, b))
                return super().link(a, b)

        _, plan = self._bind(Counting)
        devices = plan.devices
        pairs = list(dict.fromkeys(
            (devices[s], devices[d])
            for s, d in zip(plan.send_src, plan.send_dst)))
        assert len(pairs) < len(plan.send_src)
        assert calls == ["tables", *pairs]
        assert plan.comp_cost == reference_binding(plan, plan.costs)[
            "comp_cost"]
        calls.clear()
        plan.retime([plan.costs, plan.costs])
        assert calls == 2 * ["tables", *pairs]
        calls.clear()
        self._execute_all(plan)
        assert calls == []

    def test_self_pairs_bind_free_without_a_link(self):
        """A send whose ends map to one global rank is ``(0, 0)``,
        answered by ``retime`` itself: the oracle's ``link`` is never
        asked for it."""

        class OneRank(AbstractCosts):
            def global_rank(self, device):
                return 0

            def link(self, a, b):
                raise AssertionError(f"link asked for ({a}, {b})")

        _, plan = self._bind(OneRank)
        assert plan.send_time and set(plan.send_time) == {0.0}
        assert set(plan.send_lat) == {0.0}

    def test_links_are_asked_between_global_ranks(self):
        """``link`` is asked over the oracle's rank map, not the
        program's local devices."""
        calls = []

        class Spaced(AbstractCosts):
            def global_rank(self, device):
                return 2 * device

            def link(self, a, b):
                calls.append((a, b))
                return super().link(a, b)

        _, plan = self._bind(Spaced)
        devices = plan.devices
        assert calls == list(dict.fromkeys(
            (2 * devices[s], 2 * devices[d])
            for s, d in zip(plan.send_src, plan.send_dst)))

    @staticmethod
    def _bind(oracle_type):
        from repro.schedules import build_schedule

        sched = build_schedule(make_config("dapple", P, B))
        stages = sched.num_stages
        program = compile_program(sched, resources=StageResources(
            weight_bytes=(100.0,) * stages,
            activation_bytes=(10.0,) * stages))
        oracle = oracle_type(CostConfig(), P, stages)
        return program, ExecutablePlan.lower(program, oracle)

    @staticmethod
    def _execute_all(plan):
        for run in (RunConfig(), RunConfig(contention=True)):
            execute_plan(plan, run)
            execute_plan(plan, run)
            with pytest.raises(OutOfMemoryError):
                execute_plan(plan, run, capacity_bytes=105)
        execute_many([(plan, None), (plan, 105)])


LAYOUTS = [(1, 8, 1), (1, 4, 2), (1, 2, 4), (2, 4, 1)]


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("layout", LAYOUTS,
                         ids=["8x1", "4x2", "2x4", "tp2"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
class TestSizeBinding:
    """The plan cache builds a pipeline shape once and *size-binds* it
    per model.  The binding may share arrays but never meaning: every
    model's cached program + plan must be indistinguishable from an
    independent compile + lowering of the same cell."""

    def test_size_bound_plan_equals_independent_lowering(
        self, param, layout, prefetch, batching
    ):
        from repro.actions import with_tp_sync
        from repro.analysis import (
            HybridLayout,
            build_hybrid_simulation,
            plan_cache,
            tp_rank_groups,
        )
        from repro.models import bert_64, gpt_128
        from repro.schedules import build_schedule

        scheme, kw = param
        tp, p, d = layout
        layout = HybridLayout(tp, p, d)
        cluster = make_fc(8)
        run = RunConfig(prefetch=prefetch, batch_cross_comm=batching)
        cache = plan_cache()
        cache.clear()
        models = [bert_64(), gpt_128(), tiny_model(num_layers=30)]
        for model in models:    # bert donates the shape, the rest bind
            cell = build_hybrid_simulation(
                scheme, cluster, model, layout, num_microbatches=8,
                w=kw.get("num_waves", 1), run=run)
            program = compile_cluster_program(
                build_schedule(cell.cfg), cluster, cell.costs, d=d,
                run=run, spacing=tp)
            if tp > 1:
                program = with_tp_sync(
                    program, tp_rank_groups(cluster, layout),
                    nbytes=model.boundary_bytes(1),
                    count_per_pass=2.0 * (model.num_layers + 2)
                    / program.num_stages)
            fresh = ExecutablePlan.lower(program)
            assert cell.plan.plan_key == fresh.plan_key
            assert cell.plan.congruence_key == fresh.congruence_key
            for column in ("comp_alloc", "comp_free", "send_nbytes",
                           "coll_ops", "coll_count", "coll_active",
                           "coll_chunk"):     # not all of them are hashed
                assert getattr(cell.plan, column) == getattr(fresh, column)
            assert cell.program.actions == program.actions
            assert cell.plan.decode() == cell.program.actions
        assert (cache.shape_misses, cache.shape_hits) == (1, 2)
        assert (len(cache), len(cache._shapes)) == (3, 1)


#: cross-family aliases of the ``sweep_cold`` grid (layouts P x D with
#: D = 8 / P, B = P): ``(scheme, scheme', P, B, W)`` compiling to
#: congruent programs, and one pair that must stay apart
ALIASES = [
    ("dapple", "interleaved", 2, 2, 1),
    ("gems", "chimera", 2, 2, 1),
    ("chimera-wave", "hanayo", 2, 2, 1),
    ("chimera-wave", "hanayo", 4, 4, 1),
    ("chimera-wave", "hanayo", 8, 8, 1),
]


class TestCrossFamilyAliases:
    """Some (scheme, P, B, W) shapes of different families lower to
    one control flow: the batched runtime stacks them into one lockstep
    batch, though the plan cache still builds each shape on its own.
    A claim about the schedules, pinned as ``congruence_key`` facts."""

    @staticmethod
    def _congruence_key(scheme, p, b, w):
        from repro.analysis import HybridLayout, build_hybrid_simulation

        return build_hybrid_simulation(
            scheme, make_fc(8), tiny_model(num_layers=16),
            HybridLayout(1, p, 8 // p), b, w=w).plan.congruence_key

    @pytest.mark.parametrize("scheme, alias, p, b, w", ALIASES,
                             ids=[f"{s}={a}-P{p}" for s, a, p, _, _
                                  in ALIASES])
    def test_alias(self, scheme, alias, p, b, w):
        assert self._congruence_key(scheme, p, b, w) == \
            self._congruence_key(alias, p, b, w)

    def test_hanayo_two_waves_is_not_chimera_wave(self):
        assert self._congruence_key("hanayo", 4, 4, 2) != \
            self._congruence_key("chimera-wave", 4, 4, 1)


def test_with_sizes_rejects_a_program_of_another_shape():
    """The one shape fact a size binding can get wrong — collectives
    missing or over other rank groups — is refused, not mis-lowered."""
    from repro.errors import ValidationError
    from repro.schedules import build_schedule

    cluster = make_fc(8)
    sched = build_schedule(PipelineConfig(
        scheme="gpipe", num_devices=4, num_microbatches=4, data_parallel=2))
    costs = stage_costs(tiny_model(num_layers=16), sched.num_stages,
                        cluster.device, 1)
    synced = compile_cluster_program(sched, cluster, costs, d=2)
    plan = ExecutablePlan.lower(synced)
    assert plan.with_sizes(synced).plan_key == plan.plan_key
    with pytest.raises(ValidationError, match="do not match the shape"):
        plan.with_sizes(compile_cluster_program(sched, cluster, costs, d=1))
