"""Hybrid tensor × pipeline × data parallelism (paper Secs. 1 and 6).

The paper positions pipeline parallelism inside the standard Megatron
recipe: tensor parallelism *within* a node (cheap collectives over
NVLink), pipeline parallelism *across* nodes (cheap P2P), data
parallelism on top.  This module adds the tensor-parallel dimension to
the throughput harness so that recipe can be searched and the paper's
placement claim checked quantitatively.

Since the collectives-in-the-IR refactor both communication dimensions
are *compiled into the program*: TP boundary all-reduces become
blocking ring collectives after every compute action
(:func:`repro.actions.with_tp_sync`, two per layer per pass) and DP
gradient syncs become asynchronous per-stage rings
(:func:`repro.actions.with_gradient_sync`), so the hybrid figures run
on simulated overlap exactly like the flat DP path.  The closed-form
model (:func:`apply_tensor_parallel` with ``include_comm=True``, plus
:func:`dp_allreduce_seconds`) is retained as the analytic cross-check
and the ``overlap="model"`` fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..actions.collectives import with_tp_sync
from ..actions.lowering import ExecutablePlan
from ..actions.program import Program
from .. import profiling
from ..cluster.comm_model import CommModel
from ..cluster.presets import Cluster
from ..cluster.topology import ring_transfer_chain
from ..config import PipelineConfig, RunConfig
from ..errors import ConfigError, OutOfMemoryError
from ..models.costs import StageCosts, stage_costs
from ..models.spec import ModelSpec
from ..runtime.costs import ConcreteCosts
from ..runtime.events import execute_plan
from ..runtime.metrics import fold_events
from ..schedules.base import Schedule
from ..schedules.factory import build_schedule
from .plans import PlanEntry, plan_cache
from .throughput import (
    OVERLAP_MODES,
    ThroughputResult,
    compile_cluster_program,
    enforced_capacity,
    request_capacity,
    runtime_oom_result,
    simulate_groups,
    static_oom_result,
    throughput_from_simulation,
)


def tp_allreduce_seconds(cluster: Cluster, tp: int,
                         nbytes: float) -> float:
    """One tensor-parallel all-reduce over the first TP group's ranks."""
    if tp <= 1:
        return 0.0
    if tp > cluster.num_devices:
        raise ConfigError(
            f"TP group of {tp} ranks exceeds cluster {cluster.name} "
            f"of {cluster.num_devices} devices"
        )
    ranks = list(range(tp))
    return ring_transfer_chain(cluster.topology, ranks, nbytes)


def apply_tensor_parallel(
    costs: StageCosts,
    cluster: Cluster,
    model: ModelSpec,
    tp: int,
    microbatch_size: int,
    layers_per_stage: float,
    include_comm: bool = True,
) -> StageCosts:
    """Shard stage costs over a TP group.

    ``include_comm=True`` (the closed-form model) folds the boundary
    all-reduce seconds into every stage duration; the simulated path
    passes ``False`` and lets the compiled :class:`CollectiveOp`\\ s
    carry exactly those seconds instead — the parity the hybrid tests
    pin down.
    """
    if tp < 1:
        raise ConfigError("tensor-parallel degree must be >= 1")
    if tp == 1:
        return costs
    if tp > cluster.gpus_per_node:
        raise ConfigError(
            f"TP degree {tp} exceeds the node size "
            f"{cluster.gpus_per_node} (TP wants NVLink locality)"
        )
    per_stage_comm = 0.0
    if include_comm:
        ar = tp_allreduce_seconds(cluster, tp,
                                  model.boundary_bytes(microbatch_size))
        # 2 all-reduces per layer per pass; backward mirrors them.
        per_stage_comm = 2.0 * layers_per_stage * ar
    return StageCosts(
        forward=tuple(f / tp + per_stage_comm for f in costs.forward),
        backward=tuple(b / tp + per_stage_comm for b in costs.backward),
        boundary_bytes=costs.boundary_bytes,
        weight_bytes=tuple(w / tp for w in costs.weight_bytes),
        activation_bytes=tuple(a / tp for a in costs.activation_bytes),
    )


class _SpacedCosts(ConcreteCosts):
    """Cost oracle of a hybrid pipeline.

    Pipeline peers sit ``tp`` ranks apart in the cluster topology
    (rank = tp_rank + tp * pp_rank), so both pipeline transfers and the
    program-local → global rank mapping space by the TP degree — which
    is what routes DP/TP collective rings and link contention onto the
    *physical* ranks.
    """

    def __init__(self, stage_costs: StageCosts, cluster: Cluster,
                 tp: int) -> None:
        super().__init__(stage_costs,
                         CommModel(topology=cluster.topology))
        self._tp = tp

    def global_rank(self, device: int) -> int:
        return device * self._tp

    def transfer_time(self, src: int, dst: int, stage: int) -> float:
        if src == dst:
            return 0.0
        return self.comm.topology.transfer_time(
            self.global_rank(src), self.global_rank(dst),
            self.stage_costs.boundary_bytes,
        )

    def link_latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self.comm.topology.effective_link(
            self.global_rank(src), self.global_rank(dst)
        ).latency


@dataclass(frozen=True)
class HybridLayout:
    """A full 3D layout: tensor x pipeline x data parallel."""

    tp: int
    p: int
    d: int

    @property
    def devices(self) -> int:
        return self.tp * self.p * self.d

    def describe(self) -> str:
        return f"TP={self.tp} x PP={self.p} x DP={self.d}"


def tp_rank_groups(cluster: Cluster, layout: HybridLayout
                   ) -> dict[int, tuple[int, ...]]:
    """Global-rank TP group for every in-pipeline device.

    Pipeline device ``g`` owns cluster ranks ``[g*tp, (g+1)*tp)`` —
    contiguous in-node ranks, the Megatron placement.  Raises
    :class:`~repro.errors.ConfigError` when the layout references
    ranks the topology does not have.
    """
    groups: dict[int, tuple[int, ...]] = {}
    for g in range(layout.p):
        ranks = tuple(g * layout.tp + j for j in range(layout.tp))
        if ranks and ranks[-1] >= cluster.num_devices:
            raise ConfigError(
                f"TP group {list(ranks)} of pipeline device {g} "
                f"references rank {ranks[-1]}, but cluster "
                f"{cluster.name} has {cluster.num_devices} devices "
                f"({layout.describe()})"
            )
        groups[g] = ranks
    return groups


@dataclass
class HybridCell:
    """One compiled hybrid configuration, ready to simulate.

    ``plan`` is the lowered + cost-bound execution plan of ``program``
    (shared through the analysis plan cache across cost-only axes);
    pass both to :func:`~repro.runtime.simulate_program`.
    """

    cfg: PipelineConfig
    schedule: Schedule
    costs: StageCosts
    program: Program
    oracle: ConcreteCosts
    plan: ExecutablePlan


def build_hybrid_simulation(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layout: HybridLayout,
    num_microbatches: int,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    simulated: bool = True,
) -> HybridCell:
    """Compile one hybrid cell into a :class:`HybridCell`.

    The single build path ``measure_hybrid_throughput`` and ``repro
    trace --dp/--tp`` share.  ``simulated=True`` compiles TP boundary
    and DP gradient collectives into the program (comm excluded from
    stage durations); ``simulated=False`` folds TP comm into durations
    and leaves the program collective-free (the closed-form model).
    ``HybridLayout(1, p, d)`` degrades gracefully to the flat DP case.

    Schedule, program and lowered plan are shared through the analysis
    plan cache: a cell differing only in the cluster re-times the
    cached plan instead of recompiling (see :mod:`repro.analysis.plans`).
    """
    if layout.devices > cluster.num_devices:
        raise ConfigError(
            f"{layout.describe()} needs {layout.devices} devices; "
            f"cluster has {cluster.num_devices}"
        )
    run = run or RunConfig()
    cfg = PipelineConfig(
        scheme=scheme, num_devices=layout.p,
        num_microbatches=num_microbatches, num_waves=w,
        data_parallel=layout.d, microbatch_size=microbatch_size,
    )
    plans = plan_cache()
    key = ("hybrid", scheme, layout.tp, layout.p, layout.d,
           num_microbatches, microbatch_size, w, simulated,
           run.prefetch, run.batch_cross_comm, model)
    entry = plans.get(key)
    with profiling.phase("build"):
        schedule = entry.schedule if entry is not None else \
            build_schedule(cfg)
        base = stage_costs(model, schedule.num_stages, cluster.device,
                           microbatch_size)
        layers_per_stage = (model.num_layers + 2) / schedule.num_stages
        costs = apply_tensor_parallel(base, cluster, model, layout.tp,
                                      microbatch_size, layers_per_stage,
                                      include_comm=not simulated)
    oracle = _SpacedCosts(costs, cluster, layout.tp)
    with profiling.phase("lower"):
        if entry is None:
            program = compile_cluster_program(
                schedule, cluster, costs,
                d=layout.d if simulated else 1, run=run, spacing=layout.tp,
            )
            if simulated and layout.tp > 1:
                program = with_tp_sync(
                    program, tp_rank_groups(cluster, layout),
                    nbytes=model.boundary_bytes(microbatch_size),
                    count_per_pass=2.0 * layers_per_stage,
                )
            entry = plans.put(key, PlanEntry(
                schedule, program, ExecutablePlan.lower(program)))
        plan = entry.bound_plan((cluster, costs, layout.p, layout.tp),
                                lambda: oracle)
    return HybridCell(cfg=cfg, schedule=schedule, costs=costs,
                      program=entry.program, oracle=oracle, plan=plan)


def measure_hybrid_throughput(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    layout: HybridLayout,
    num_microbatches: int,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    overlap: str = "simulated",
    enforce_memory: bool = True,
    capacity_bytes: int | None = None,
) -> ThroughputResult:
    """Throughput of one (TP, PP, DP) layout on a cluster.

    TP groups occupy contiguous in-node ranks; the pipeline's P2P hops
    then connect *node-distance* peers, which is modeled by spacing
    pipeline ranks ``tp`` apart in the cluster topology.  Under the
    default ``overlap="simulated"`` both the TP boundary all-reduces
    and the DP gradient rings are compiled into the program and timed
    by the event core; ``overlap="model"`` keeps the closed-form
    folding + :data:`ANALYTIC_DP_OVERLAP` discount.
    """
    if overlap not in OVERLAP_MODES:
        raise ConfigError(
            f"unknown overlap mode {overlap!r}; expected one of "
            f"{OVERLAP_MODES}"
        )
    run = run or RunConfig()
    simulated = overlap == "simulated"
    cell = build_hybrid_simulation(
        scheme, cluster, model, layout, num_microbatches,
        w=w, microbatch_size=microbatch_size, run=run,
        simulated=simulated,
    )

    capacity = enforced_capacity(cluster, capacity_bytes, enforce_memory)
    # Static pre-check: a TP-sharded stage set whose weights alone bust
    # the budget never enters the event loop.
    pruned = static_oom_result(cell.cfg, cluster, model, cell.schedule,
                               cell.costs, capacity)
    if pruned is not None:
        return pruned

    t0 = time.perf_counter()
    try:
        with profiling.phase("simulate"):
            result = execute_plan(cell.plan, run, capacity_bytes=capacity,
                                  detail="lean")
    except OutOfMemoryError as exc:
        return runtime_oom_result(cell.cfg, cluster, model, exc)
    finally:
        if layout.tp > 1:
            # the remaining scalar TP>1 frontier (single-cell calls;
            # the sweep engine routes multi-lane units through
            # measure_hybrid_throughput_batch)
            profiling.record_scalar(1, time.perf_counter() - t0, "tp>1")
    return throughput_from_simulation(
        cell.cfg, cell.schedule, [(cluster, model, cell.costs, overlap)],
        fold_events(result), [0], ring_p=layout.p * layout.tp)[0]


@dataclass(frozen=True)
class HybridRequest:
    """One cell of a batched hybrid measurement (TP x PP x DP).

    Field-for-field the keyword surface of
    :func:`measure_hybrid_throughput`; a list of these is what
    :func:`measure_hybrid_throughput_batch` groups by structural plan
    key and executes in lockstep.
    """

    scheme: str
    cluster: Cluster
    model: ModelSpec
    layout: HybridLayout
    num_microbatches: int
    w: int = 1
    microbatch_size: int = 1
    enforce_memory: bool = True
    overlap: str = "simulated"
    capacity_bytes: int | None = None
    #: arbitrate shared wires for this cell even when the batch-wide
    #: RunConfig leaves contention off (ORed with ``run.contention``)
    contention: bool = False


def measure_hybrid_throughput_batch(
    requests: list[HybridRequest],
    run: RunConfig | None = None,
) -> list[ThroughputResult | ConfigError]:
    """Measure many hybrid cells at once, batching structural lanes.

    The TP>1 counterpart of
    :func:`repro.analysis.throughput.measure_throughput_batch`: the TP
    boundary all-reduces and DP gradient rings are already compiled
    into each group's program, so cost-only lanes (clusters, capacity
    variants) of one (scheme, TP, PP, DP, B, mb, w) shape re-time the
    cached plan and stack into the lockstep batch — no per-lane scalar
    replay.  All groups' lanes go through one global
    :func:`repro.runtime.batched.execute_many`, which further merges
    congruent structures across plan keys.  Outcomes come back in
    request order; a cell :func:`measure_hybrid_throughput` would
    reject yields its :class:`~repro.errors.ConfigError` as the
    outcome, and every produced :class:`ThroughputResult` is exactly
    what the scalar call returns (pinned by the sweep parity tests).
    """
    run = run or RunConfig()
    outcomes: list[ThroughputResult | ConfigError | None] = \
        [None] * len(requests)
    #: plan key x effective contention mode, as measure_throughput_batch
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        if req.overlap not in OVERLAP_MODES:
            outcomes[i] = ConfigError(
                f"unknown overlap mode {req.overlap!r}; expected one of "
                f"{OVERLAP_MODES}"
            )
            continue
        if req.layout.devices > req.cluster.num_devices:
            outcomes[i] = ConfigError(
                f"{req.layout.describe()} needs {req.layout.devices} "
                f"devices; cluster has {req.cluster.num_devices}"
            )
            continue
        simulated = req.overlap == "simulated"
        key = ("hybrid", req.scheme, req.layout.tp, req.layout.p,
               req.layout.d, req.num_microbatches, req.microbatch_size,
               req.w, simulated, run.prefetch, run.batch_cross_comm,
               req.model)
        groups.setdefault((key, run.contention or req.contention),
                          []).append(i)

    plans = plan_cache()
    items_by: dict[bool, list[tuple]] = {False: [], True: []}
    pending: list[tuple] = []
    for (key, mode), lane_ids in groups.items():
        head = requests[lane_ids[0]]
        layout = head.layout
        simulated = head.overlap == "simulated"
        group_cfg = PipelineConfig(
            scheme=head.scheme, num_devices=layout.p,
            num_microbatches=head.num_microbatches, num_waves=head.w,
            data_parallel=layout.d,
            microbatch_size=head.microbatch_size,
        )
        label = (f"{head.scheme}/{head.model.name} TP{layout.tp} "
                 f"P{layout.p} D{layout.d} W{head.w} "
                 f"B{head.num_microbatches}x{head.microbatch_size} "
                 f"[{len(lane_ids)} lanes]")
        with profiling.cell(label):
            entry = plans.get(key)
            with profiling.phase("build"):
                try:
                    schedule = entry.schedule if entry is not None else \
                        build_schedule(group_cfg)
                except ConfigError as exc:
                    for i in lane_ids:
                        outcomes[i] = exc
                    continue
                # model is part of the group key, so layers-per-stage
                # and boundary bytes agree across the group's lanes
                layers_per_stage = (head.model.num_layers + 2) \
                    / schedule.num_stages
                lane_costs: list = []
                for i in lane_ids:
                    req = requests[i]
                    base = stage_costs(req.model, schedule.num_stages,
                                       req.cluster.device,
                                       req.microbatch_size)
                    try:
                        lane_costs.append(apply_tensor_parallel(
                            base, req.cluster, req.model, layout.tp,
                            req.microbatch_size, layers_per_stage,
                            include_comm=not simulated))
                    except ConfigError as exc:
                        # per-lane: TP degree vs *this* cluster's node
                        lane_costs.append(exc)
            live: list[int] = []     # positions into lane_ids
            for pos, i in enumerate(lane_ids):
                req = requests[i]
                costs = lane_costs[pos]
                if isinstance(costs, ConfigError):
                    outcomes[i] = costs
                    continue
                outcomes[i] = static_oom_result(
                    group_cfg, req.cluster, req.model, schedule, costs,
                    request_capacity(req))
                if outcomes[i] is None:
                    live.append(pos)
            if not live:
                continue
            with profiling.phase("lower"):
                if entry is None:
                    pos = live[0]
                    req = requests[lane_ids[pos]]
                    program = compile_cluster_program(
                        schedule, req.cluster, lane_costs[pos],
                        d=layout.d if simulated else 1, run=run,
                        spacing=layout.tp,
                    )
                    if simulated and layout.tp > 1:
                        program = with_tp_sync(
                            program, tp_rank_groups(req.cluster, layout),
                            nbytes=req.model.boundary_bytes(
                                req.microbatch_size),
                            count_per_pass=2.0 * layers_per_stage,
                        )
                    entry = plans.put(key, PlanEntry(
                        schedule, program, ExecutablePlan.lower(program)))
                start = len(items_by[mode])
                for pos in live:
                    req = requests[lane_ids[pos]]
                    costs = lane_costs[pos]
                    plan = entry.bound_plan(
                        (req.cluster, costs, layout.p, layout.tp),
                        lambda req=req, costs=costs: _SpacedCosts(
                            costs, req.cluster, layout.tp))
                    items_by[mode].append((plan, request_capacity(req)))
            pending.append((mode, start, schedule, group_cfg,
                            layout.p * layout.tp,
                            [lane_ids[pos] for pos in live],
                            [lane_costs[pos] for pos in live]))
    simulate_groups(requests, outcomes, items_by, pending, run)
    return outcomes


def hybrid_search(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    total_batch: int,
    waves: tuple[int, ...] = (1, 2, 4),
    overlap: str = "simulated",
) -> list[tuple[HybridLayout, int, ThroughputResult]]:
    """Sweep (TP, PP, DP) factorizations of the cluster's device count."""
    n = cluster.num_devices
    out = []
    tp = 1
    while tp <= cluster.gpus_per_node:
        rest = n // tp
        p = rest
        while p >= 2:
            d = rest // p
            if tp * p * d == n:
                b = max(1, min(total_batch // d, p))
                mb = max(1, (total_batch // d) // b)
                wave_opts = (waves if scheme == "hanayo" else (1,))
                for w in wave_opts:
                    if 2 * w * p > model.num_layers + 2:
                        continue
                    try:
                        r = measure_hybrid_throughput(
                            scheme, cluster, model,
                            HybridLayout(tp, p, d), b, w=w,
                            microbatch_size=mb, overlap=overlap,
                        )
                    except ConfigError:
                        continue
                    out.append((HybridLayout(tp, p, d), w, r))
            p //= 2
        tp *= 2
    return out
