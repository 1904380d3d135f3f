"""Cost binding (``ExecutablePlan.retime``) and the split plan keys.

``retime`` gathers per-stage duration tables and fans per-edge transfer
answers out across the sends; the per-op / per-send loop it replaced is
kept in ``support.binding`` as the reference, and every oracle kind is
compared against it field by field.  The congruence key is one shape
digest per lowering plus the collective columns a size binding sets.
"""

from __future__ import annotations

import pytest

from repro.actions import (
    ExecutablePlan,
    StageResources,
    compile_program,
    with_gradient_sync,
    with_tp_sync,
)
from repro.actions import lowering
from repro.analysis import (
    HybridLayout,
    compile_cluster_program,
    measure_hybrid_throughput_batch,
    plan_cache,
    tp_rank_groups,
)
from repro.analysis.throughput import ClusterCosts, HybridRequest
from repro.cluster import make_fc, make_pc
from repro.config import CostConfig, RunConfig
from repro.errors import ConfigError
from repro.models import bert_64, gpt_128, stage_costs
from repro.runtime import AbstractCosts
from repro.schedules import build_schedule
from repro.synthesis.search import _RecomputeCosts
from repro.types import OpKind

from conftest import ALL_SCHEMES, make_config, scheme_id
from support.binding import RandomCosts, reference_binding

B = 4

#: every cost column a binding sets
BOUND = ("comp_cost", "send_time", "send_lat", "send_wire", "coll_wires",
         "coll_step_time", "n_wires", "global_ranks")

#: (tp, p, d): a flat pipeline, DP gradient rings, TP boundary rings
LAYOUTS = [(1, 8, 1), (1, 4, 2), (2, 4, 1)]


def cluster_program(scheme, kw, layout, prefetch, batching):
    """A size-bound program of the layout on a 16-GPU PC cluster, with
    its DP and TP collectives compiled in, and its stage costs."""
    tp, p, d = layout
    cluster = make_pc(16)
    model = bert_64()
    run = RunConfig(prefetch=prefetch, batch_cross_comm=batching)
    schedule = build_schedule(make_config(scheme, p, B, **kw))
    costs = stage_costs(model, schedule.num_stages, cluster.device)
    program = compile_cluster_program(schedule, cluster, costs, d=d,
                                      run=run, spacing=tp)
    if tp > 1:
        program = with_tp_sync(
            program, tp_rank_groups(cluster, HybridLayout(tp, p, d)),
            nbytes=model.boundary_bytes(1),
            count_per_pass=2.0 * (model.num_layers + 2) / schedule.num_stages)
    return program, cluster, costs


def assert_binds_like_reference(plan, oracle):
    bound = plan.retime(oracle)
    reference = reference_binding(plan, oracle)
    for column in BOUND:
        assert getattr(bound, column) == reference[column], column


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["8x1", "4x2", "tp2"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
def test_every_oracle_binds_like_the_per_op_loop(param, layout, prefetch,
                                                 batching):
    scheme, kw = param
    program, cluster, costs = cluster_program(scheme, kw, layout, prefetch,
                                              batching)
    plan = ExecutablePlan.lower(program)
    stages = program.num_stages
    p = len(plan.devices)
    oracles = [
        ClusterCosts(costs, cluster, 1),
        ClusterCosts(costs, cluster, 2),
        AbstractCosts(CostConfig(t_c=0.5), p, stages),
        RandomCosts(7, p, stages, B),
        _RecomputeCosts(RandomCosts(7, p, stages, B), 1),
        *(_RecomputeCosts(ClusterCosts(costs, cluster, layout[0]), frontier)
          for frontier in range(stages + 1)),
    ]
    for oracle in oracles:
        assert_binds_like_reference(plan, oracle)


def test_recompute_tables_are_never_forwarded():
    """``_RecomputeCosts`` forwards unknown attributes to the oracle it
    wraps.  Its stage tables are defined on the class, so the forwarder
    is never asked for them: a gather binds the recompute charge, not
    the wrapped oracle's plain backward times."""
    program, cluster, costs = cluster_program("hanayo", {"num_waves": 2},
                                              (1, 4, 1), True, True)
    plan = ExecutablePlan.lower(program)
    inner = ClusterCosts(costs, cluster)
    frontier = 3
    wrapped = _RecomputeCosts(inner, frontier)
    assert "stage_durations" in vars(_RecomputeCosts)
    forward, backward = inner.stage_durations()
    assert wrapped.stage_durations() == (forward, [
        b + f if stage >= frontier else b
        for stage, (f, b) in enumerate(zip(forward, backward))])
    plain = plan.retime(inner).comp_cost
    charged = plan.retime(wrapped).comp_cost
    recomputed = 0
    for op, before, after in zip(plan.comp_ops, plain, charged):
        if op.kind is OpKind.BACKWARD and op.stage >= frontier:
            assert after == before + forward[op.stage]
            recomputed += 1
        else:
            assert after == before
    assert recomputed > 0


def test_short_tables_fall_back_to_the_oracles_own_check():
    """A stage past the end of the oracle's tables is asked of
    ``duration``: ``ConcreteCosts`` keeps its out-of-table error."""
    program, cluster, _ = cluster_program("dapple", {}, (1, 4, 1), True,
                                          True)
    short = stage_costs(bert_64(), 3, cluster.device)   # one stage short
    with pytest.raises(ConfigError, match="op stage 3 outside cost table "
                                          "of 3"):
        ExecutablePlan.lower(program, ClusterCosts(short, cluster))


class TestKeySplit:
    def test_one_shape_digest_per_shape(self, monkeypatch):
        """A cold grid over one shape (2 models × 2 clusters) hashes the
        shape once; every bound plan's keys equal an independent
        lowering's."""
        digests = []
        real = lowering._shape_digest
        monkeypatch.setattr(lowering, "_shape_digest",
                            lambda shape: digests.append(1) or real(shape))
        cache = plan_cache()
        cache.clear()
        layout = HybridLayout(1, 4, 2)
        requests = [HybridRequest("hanayo", cluster, model, layout, 8, w=2)
                    for model in (bert_64(), gpt_128())
                    for cluster in (make_fc(8), make_pc(8))]
        outcomes = measure_hybrid_throughput_batch(requests)
        assert not [o for o in outcomes if isinstance(o, Exception)]
        assert len(digests) == 1
        entries = list(cache._store.values())
        assert len(entries) == 2
        shape_digest = entries[0].plan.shape_digest
        bound = [plan for entry in entries
                 for plan in entry.bindings.values()]
        assert len(bound) == 4
        for entry in entries:
            fresh = ExecutablePlan.lower(entry.program)
            for plan in entry.bindings.values():
                assert plan.shape_digest is shape_digest
                assert plan.congruence_key == fresh.congruence_key
                assert plan.plan_key == fresh.plan_key

    @pytest.mark.parametrize("column", ["coll_count", "coll_active"])
    def test_collective_columns_split_the_key(self, column):
        """Size bindings of one shape that differ only in a collective
        column share the digest but not the congruence key."""
        schedule = build_schedule(make_config("dapple", 4, B))
        stages = schedule.num_stages
        base = compile_program(schedule, resources=StageResources(
            weight_bytes=(8.0,) * stages, activation_bytes=(1.0,) * stages))
        if column == "coll_count":
            groups = {d: (2 * d, 2 * d + 1) for d in range(4)}
            a, b = (with_tp_sync(base, groups, nbytes=1.0,
                                 count_per_pass=count)
                    for count in (2.0, 3.0))
        else:
            groups = {d: (d, d + 4) for d in range(4)}
            a, b = (with_gradient_sync(base, groups,
                                       dict.fromkeys(range(stages), nbytes))
                    for nbytes in (1.0, 0.0))
        plan_a = ExecutablePlan.lower(a)
        plan_b = plan_a.with_sizes(b)
        assert getattr(plan_a, column) != getattr(plan_b, column)
        assert plan_b.shape_digest is plan_a.shape_digest
        assert plan_b.congruence_key != plan_a.congruence_key
        assert plan_b.congruence_key == ExecutablePlan.lower(b).congruence_key
