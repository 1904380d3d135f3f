"""Cost binding (``ExecutablePlan.retime``) and the split plan keys.

``retime`` gathers per-stage duration tables and fans one link per
distinct ``(src, dst)`` pair out across the sends, for one oracle or for
a sequence of lanes in one call; the per-op / per-send loop it replaced
is kept in ``support.binding`` as the reference, and every oracle kind
is compared against it field by field.  The congruence key is one shape digest per
lowering plus the collective columns a size binding sets.
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
from repro.analysis.throughput import HybridRequest
from repro.cluster import make_fc, make_pc, make_tacc, make_tc
from repro.config import CostConfig, RunConfig
from repro.errors import ConfigError
from repro.models import bert_64, gpt_128, stage_costs
from repro.runtime import AbstractCosts, ClusterCosts
from repro.schedules import build_schedule
from repro.sweep import SweepSpec, run_sweep
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


@pytest.mark.parametrize("prefetch", [True, False], ids=["pf", "nopf"])
@pytest.mark.parametrize("batching", [True, False], ids=["batch", "nobatch"])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["8x1", "4x2", "tp2"])
@pytest.mark.parametrize("param", ALL_SCHEMES, ids=scheme_id)
def test_every_oracle_binds_like_the_per_op_loop(param, layout, prefetch,
                                                 batching):
    """Every oracle binds like the reference: alone, as a one-lane
    tuple, and as one lane of a single call binding a mixed list."""
    scheme, kw = param
    program, cluster, costs = cluster_program(scheme, kw, layout, prefetch,
                                              batching)
    plan = ExecutablePlan.lower(program)
    stages = program.num_stages
    p = len(plan.devices)
    oracles = [
        *(ClusterCosts(costs, factory(16), tp)
          for factory in (make_pc, make_fc, make_tacc, make_tc)
          for tp in (1, 2)),
        AbstractCosts(CostConfig(t_c=0.5), p, stages),
        RandomCosts(7, p, stages, B),
        RandomCosts(7, p, stages, B).with_recompute_from(1),
        *(ClusterCosts(costs, cluster, layout[0]).with_recompute_from(
            frontier) for frontier in range(stages + 1)),
    ]
    lanes = plan.retime(oracles)
    assert len(lanes) == len(oracles)
    for oracle, lane in zip(oracles, lanes):
        reference = reference_binding(plan, oracle)
        [alone] = plan.retime((oracle,))
        bound = plan.retime(oracle)
        for binding in (lane, alone, bound):
            assert binding.costs is oracle
            assert binding.comp_cell is plan.comp_cell
            for column in BOUND:
                assert getattr(binding, column) == reference[column], column


def test_a_cold_sweep_binds_each_size_binding_once(monkeypatch):
    """Four clusters time every size binding: one ``retime`` per binding
    group binds all its lanes, and the rows equal a run that binds one
    lane per call."""
    retimes = []
    real = ExecutablePlan.retime

    def counting(plan, costs):
        retimes.append(1 if hasattr(costs, "global_rank") else len(costs))
        return real(plan, costs)

    monkeypatch.setattr(ExecutablePlan, "retime", counting)
    spec = SweepSpec(
        schemes=("gpipe", "hanayo"),
        clusters=tuple(factory(8) for factory in (make_pc, make_fc,
                                                  make_tacc, make_tc)),
        models=(bert_64(),), layouts=((8, 1), (4, 2)),
        total_batches=(8, 16), waves=(1, 2))
    cache = plan_cache()
    cache.clear()
    batched = run_sweep(spec)
    groups = len(cache)
    assert len(retimes) == groups
    assert sum(retimes) == 4 * groups      # every lane of a group at once

    def per_lane(requests):
        return [out for req in requests
                for out in measure_hybrid_throughput_batch([req])]

    retimes.clear()
    cache.clear()
    reference = run_sweep(spec, measure=per_lane)
    assert retimes == [1] * (4 * groups)
    assert [row.to_dict() for row in batched.rows] == \
        [row.to_dict() for row in reference.rows]


def test_a_group_binds_only_its_missing_lanes():
    """``PlanEntry.bound_plans`` binds the keys it lacks in one call, a
    repeated key once, and hands cached plans back as they are."""
    from repro.analysis.plans import PlanEntry

    program, _, costs = cluster_program("dapple", {}, (1, 4, 2), True, True)
    plan = ExecutablePlan.lower(program)
    calls = []

    class Counting(ExecutablePlan):
        def retime(self, oracles):
            calls.append(len(oracles))
            return super().retime(oracles)

    entry = PlanEntry(schedule=None, program=program,
                      plan=Counting(**vars(plan)))

    def oracle(factory):
        return lambda: ClusterCosts(costs, factory(16))

    first = entry.bound_plans(["pc", "fc"],
                              [oracle(make_pc), oracle(make_fc)])
    again = entry.bound_plans(["fc", "tc", "tc", "pc"],
                              [oracle(make_fc), oracle(make_tc),
                               oracle(make_tc), oracle(make_pc)])
    assert calls == [2, 1]
    assert again[0] is first[1] and again[3] is first[0]
    assert again[1] is again[2]
    assert list(entry.bindings) == ["fc", "tc", "pc"]


def test_recompute_is_a_table_transform():
    """``with_recompute_from`` charges each backward at or past the
    frontier its stage's forward (``b + f``) and leaves every other
    column of the binding as the plain oracle's."""
    program, cluster, costs = cluster_program("hanayo", {"num_waves": 2},
                                              (1, 4, 1), True, True)
    plan = ExecutablePlan.lower(program)
    inner = ClusterCosts(costs, cluster)
    frontier = 3
    forward, backward = inner.stage_durations()
    assert inner.with_recompute_from(frontier).stage_durations() == (
        forward, tuple(b + f if stage >= frontier else b
                       for stage, (f, b) in enumerate(zip(forward,
                                                          backward))))
    plain, charged = plan.retime(
        [inner, inner.with_recompute_from(frontier)])
    assert inner.stage_durations() == (forward, backward)
    for column in BOUND[1:]:
        assert getattr(charged, column) == getattr(plain, column), column
    recomputed = 0
    for op, before, after in zip(plan.comp_ops, plain.comp_cost,
                                 charged.comp_cost):
        if op.kind is OpKind.BACKWARD and op.stage >= frontier:
            assert after == before + forward[op.stage]
            recomputed += 1
        else:
            assert after == before
    assert recomputed > 0


def test_recompute_frontier_bounds():
    """Frontier 0 charges every backward its forward; a frontier past
    the last stage changes nothing.  Links and ranks never move, and
    the source oracle keeps its tables."""
    _, cluster, costs = cluster_program("dapple", {}, (2, 4, 1), True, True)
    inner = ClusterCosts(costs, cluster, tp=2)
    forward, backward = inner.stage_durations()
    everything = inner.with_recompute_from(0)
    assert everything.stage_durations() == (
        forward, tuple(b + f for f, b in zip(forward, backward)))
    assert inner.with_recompute_from(len(forward)).stage_durations() == (
        forward, tuple(backward))
    assert inner.stage_durations() == (forward, backward)
    assert everything.link(0, 2) == inner.link(0, 2)
    assert everything.global_rank(3) == inner.global_rank(3) == 6


def test_short_tables_raise_from_the_gather():
    """A stage past the end of the oracle's tables is refused by the
    gather, naming the first compute it cannot time."""
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
