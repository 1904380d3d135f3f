"""End-to-end throughput measurement on a modeled cluster.

This is the harness behind Figs. 9–12 — the only one: pick a scheme and
a parallel layout (``TP x PP x DP``, :class:`HybridLayout`), lower the
model onto the cluster's GPUs, compile the schedule **plus its
collectives** into one Program, simulate the iteration, gate it against
GPU memory, and convert the result into sequences/second.  The paper
positions pipeline parallelism inside the standard Megatron recipe:
tensor parallelism *within* a node (cheap collectives over NVLink),
pipeline parallelism *across* nodes (cheap P2P), data parallelism on
top.  A flat ``D`` pipelines x ``P`` devices layout is that recipe with
``TP = 1``, and a single measurement is a batch of one — there is one
request type (:class:`HybridRequest`) and one function that walks
requests (:func:`measure_hybrid_throughput_batch`).

Communication overlap is **measured, not assumed**: the compiler
inserts a ring all-reduce after each stage's last backward
(:func:`repro.actions.with_gradient_sync`) and blocking TP boundary
all-reduces after every compute action
(:func:`repro.actions.with_tp_sync`, two per layer per pass), the event
core schedules their chunk steps against the same link model as the
pipeline P2P, and the iteration ends when both compute and the last
collective finish.  The closed-form models (:func:`dp_allreduce_seconds`,
:func:`apply_tensor_parallel` with ``include_comm=True``) are retained
as cross-checks and as the explicitly-named ``overlap="model"``
analytic fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..actions.collectives import with_gradient_sync, with_tp_sync
from ..actions.lowering import ExecutablePlan
from ..actions.program import Program, compile_program
from ..actions.resources import StageResources
from .. import profiling
from ..cluster.comm_model import CommModel
from ..cluster.presets import Cluster
from ..cluster.topology import ring_transfer_chain
from ..config import PipelineConfig, RunConfig
from ..errors import ConfigError, OutOfMemoryError
from ..models.costs import StageCosts, stage_costs
from ..models.spec import ModelSpec
from ..runtime.batched import execute_many
from ..runtime.costs import ConcreteCosts
from ..runtime.memory import static_memory
from ..runtime.metrics import LaneFold
from ..schedules.base import Schedule
from ..schedules.factory import build_schedule
from ..types import seq_sum
from .plans import PlanEntry, PlanShape, plan_cache
from .result import OVERLAP_MODES, ThroughputResult

#: gradient-sync fraction the *analytic* fallback assumes is hidden
#: under backward compute (bucketed all-reduce as in Megatron /
#: DeepSpeed).  Only ``overlap="model"`` reads this; the default
#: ``overlap="simulated"`` path measures the fraction from events.
ANALYTIC_DP_OVERLAP = 0.9


@dataclass(frozen=True)
class HybridLayout:
    """A full 3D layout: tensor x pipeline x data parallel.

    Ranks are laid out Megatron-style: pipeline device ``g`` owns the
    contiguous in-node ranks ``[g*tp, (g+1)*tp)``, so pipeline peers sit
    ``tp`` ranks apart, and DP replica ``i`` starts ``i * p * tp`` ranks
    in — pipeline P2P stays local, DP spreads across blocks.
    """

    tp: int
    p: int
    d: int

    @property
    def devices(self) -> int:
        return self.tp * self.p * self.d

    def describe(self) -> str:
        return f"TP={self.tp} x PP={self.p} x DP={self.d}"


def static_oom_result(cfg: PipelineConfig, cluster: Cluster,
                      model: ModelSpec, schedule, costs,
                      capacity: int | None) -> ThroughputResult | None:
    """The O(P) static-memory pre-check, as a pruned result.

    Returns a ``statically_pruned`` OOM :class:`ThroughputResult` for
    the lowest device whose resident weights alone exceed ``capacity``,
    or ``None`` when every device's static footprint fits (the cell
    must then be simulated to get a verdict) or ``capacity`` is ``None``
    (enforcement off).
    """
    if capacity is None:
        return None
    static = static_memory(schedule, costs)
    for device in sorted(static):
        if static[device] > capacity:
            return ThroughputResult(
                config=cfg, cluster_name=cluster.name,
                model_name=model.name, seq_per_s=None, bubble_ratio=None,
                peak_mem_bytes=static[device], iteration_s=None,
                oom_device=device, statically_pruned=True,
            )
    return None


def runtime_oom_result(cfg: PipelineConfig, cluster: Cluster,
                       model: ModelSpec,
                       exc: OutOfMemoryError) -> ThroughputResult:
    """The result of a cell whose simulation aborted at capacity."""
    return ThroughputResult(
        config=cfg, cluster_name=cluster.name, model_name=model.name,
        seq_per_s=None, bubble_ratio=None,
        peak_mem_bytes=float(exc.peak_bytes),
        iteration_s=None, oom_device=exc.device,
    )


def dp_rank_groups(cluster: Cluster, p: int, d: int,
                   spacing: int = 1) -> dict[int, tuple[int, ...]]:
    """Global-rank DP ring for every in-pipeline device.

    Device ``g`` of pipeline 0 sits at cluster rank ``g * spacing``
    (``spacing`` is the tensor-parallel degree) and reduces with its
    mirrors one pipeline block — ``p * spacing`` ranks — apart.  Raises
    :class:`~repro.errors.ConfigError` when any group member falls
    outside the cluster, instead of letting the rank leak surface later
    as a routing error deep inside a re-time.
    """
    groups: dict[int, tuple[int, ...]] = {}
    for g in range(p):
        ranks = tuple(g * spacing + i * p * spacing for i in range(d))
        for rank in ranks:
            if rank >= cluster.num_devices:
                raise ConfigError(
                    f"DP group {list(ranks)} of pipeline device {g} "
                    f"references rank {rank}, but cluster "
                    f"{cluster.name} has {cluster.num_devices} devices "
                    f"(layout P={p} x D={d}"
                    + (f" x TP={spacing}" if spacing > 1 else "") + ")"
                )
        groups[g] = ranks
    return groups


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


def dp_allreduce_seconds(cluster: Cluster, p: int, d: int,
                         grad_bytes_per_device: float) -> float:
    """Closed-form ring all-reduce of one device's gradient shard.

    DP groups are the ranks ``{g, g+P, 2P+g, ...}``; the slowest group
    bounds the iteration.  Returns 0 for D == 1.  This is the analytic
    upper bound the simulated path cross-checks against (and the whole
    story under ``overlap="model"``).
    """
    if d <= 1:
        return 0.0
    if p * d > cluster.num_devices:
        raise ConfigError(
            f"DP layout P={p} x D={d} references rank {p * d - 1}, but "
            f"cluster {cluster.name} has {cluster.num_devices} devices"
        )
    worst = 0.0
    for g in range(p):
        ranks = [g + i * p for i in range(d)]
        worst = max(worst, ring_transfer_chain(
            cluster.topology, ranks, grad_bytes_per_device
        ))
    return worst


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


def stage_grad_bytes(costs: StageCosts) -> dict[int, float]:
    """fp32 gradient bytes per stage.

    ``weight_bytes`` bundles params+grads+optimizer at 16 B/param;
    the all-reduced gradients alone are 4 B/param.
    """
    return {s: w / 16.0 * 4.0 for s, w in enumerate(costs.weight_bytes)}


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


class ClusterCosts(ConcreteCosts):
    """Cost oracle of one pipeline placed on a cluster.

    Pipeline peers sit ``tp`` ranks apart in the cluster topology
    (rank = tp_rank + tp * pp_rank), so both pipeline transfers and the
    program-local → global rank mapping space by the TP degree — which
    is what routes DP/TP collective rings and link contention onto the
    *physical* ranks.  ``tp = 1`` is the flat layout: pipeline 0 on
    ranks ``0..P-1``.
    """

    def __init__(self, stage_costs: StageCosts, cluster: Cluster,
                 tp: int = 1) -> None:
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


def compile_cluster_program(
    schedule: Schedule,
    cluster: Cluster,
    costs: StageCosts,
    d: int = 1,
    run: RunConfig | None = None,
    spacing: int = 1,
    shape: Program | None = None,
) -> Program:
    """Lower a schedule onto a cluster, gradient collectives included.

    Compile the schedule's shape (or take ``shape``: it, already
    compiled under ``run``'s knobs), size-bind ``costs``' byte-accurate
    tensors and memory resources onto it, then — for ``d > 1`` — insert
    the per-stage DP gradient rings over their concrete cluster rank
    groups (``spacing`` is the tensor-parallel degree of the layout).
    """
    if shape is None:
        run = run or RunConfig()
        shape = compile_program(schedule, prefetch=run.prefetch,
                                batch_cross_comm=run.batch_cross_comm)
    program = shape.with_sizes(float(costs.boundary_bytes),
                               StageResources.from_stage_costs(costs))
    if d > 1:
        groups = dp_rank_groups(cluster, schedule.num_devices, d,
                                spacing=spacing)
        program = with_gradient_sync(program, groups,
                                     stage_grad_bytes(costs))
    return program


def throughput_from_simulation(
    cfg: PipelineConfig,
    schedule: Schedule,
    lanes: Sequence[tuple[Cluster, ModelSpec, StageCosts, str]],
    fold: LaneFold,
    rows: Sequence[int],
    *,
    ring_p: int,
) -> list[ThroughputResult]:
    """Fold simulated lanes of one plan group into results.

    ``lanes[j]`` — ``(cluster, model, stage costs, overlap mode)`` —
    was simulated as row ``rows[j]`` of ``fold``.  The single
    accounting tail of every measurement (once per plan group): the
    closed-form ring cross-check over ``ring_p = P * TP`` in-ring
    devices, the simulated-vs-analytic overlap branch, and iteration =
    ``busy_end + exposed sync``.  Simulated overlap reads the fold:
    ``sync_s`` is the busiest device's gradient-ring seconds, the
    exposure the iteration's extension past ``busy_end`` (trailing TP
    all-reduces are *busy* time, not sync exposure), the overlap the
    hidden fraction ``1 - exposed / sync`` — the number the paper's
    Sec. 3.2 claim is about.
    """
    d = cfg.data_parallel
    seqs = cfg.num_microbatches * cfg.microbatch_size * d
    stages_on = [schedule.placement.stages_on(dev)
                 for dev in range(schedule.num_devices)]
    rows = list(rows)
    columns = zip(*(column[rows].tolist() for column in fold))
    results = []
    for (cluster, model, costs, overlap), \
            (_makespan, bubble, busy_end, sync_s, sync_done, peak) \
            in zip(lanes, columns):
        per_stage = stage_grad_bytes(costs)
        grad_bytes = max(seq_sum(per_stage[stage] for stage, _r in stages)
                         for stages in stages_on)
        sync_model = dp_allreduce_seconds(cluster, ring_p, d, grad_bytes)
        if overlap == "simulated":
            exposed = max(0.0, sync_done - busy_end)
            frac = 1.0 - exposed / sync_s if sync_s > 0 else None
        else:
            sync_s = sync_model
            exposed = sync_model * (1.0 - ANALYTIC_DP_OVERLAP)
            frac = ANALYTIC_DP_OVERLAP if d > 1 else None
        iteration = busy_end + exposed
        results.append(ThroughputResult(
            config=cfg, cluster_name=cluster.name, model_name=model.name,
            seq_per_s=seqs / iteration, bubble_ratio=bubble,
            peak_mem_bytes=peak, iteration_s=iteration,
            sync_s=sync_s, sync_exposed_s=exposed, sync_overlap=frac,
            sync_model_s=sync_model, overlap_mode=overlap,
        ))
    return results


@dataclass(frozen=True)
class HybridRequest:
    """One cell to measure — the one request type.

    ``overlap`` selects how collective communication is charged.
    ``"simulated"`` (the default) compiles the DP gradient rings and TP
    boundary all-reduces into the program and lets the event core
    measure how much of them pipeline bubbles hide; ``"model"`` is the
    analytic fallback — closed-form ring times, the DP one discounted
    by the assumed :data:`ANALYTIC_DP_OVERLAP` fraction — kept for
    cross-checks and for comparison with the paper's own estimates.

    Memory is enforced *live* unless ``enforce_memory`` is off:
    statically-infeasible cells (weights + grads + optimizer alone
    exceed capacity) are rejected in O(P) before any simulation, and
    all other OOM cells abort the event loop at a violating allocation
    — OOM verdicts never pay a full simulation.  ``capacity_bytes``
    overrides the cluster device's memory (a ``--capacity-gib``
    what-if).
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

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            scheme=self.scheme,
            num_devices=self.layout.p,
            num_microbatches=self.num_microbatches,
            num_waves=self.w,
            data_parallel=self.layout.d,
            microbatch_size=self.microbatch_size,
        )

    def capacity(self) -> int | None:
        """The device capacity this cell enforces — the what-if or the
        card's — or ``None`` when enforcement is off."""
        if not self.enforce_memory:
            return None
        return (self.cluster.device.memory_bytes
                if self.capacity_bytes is None else self.capacity_bytes)


def ThroughputRequest(  # noqa: N802 - constructor of HybridRequest
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    p: int,
    num_microbatches: int,
    d: int = 1,
    w: int = 1,
    microbatch_size: int = 1,
    **knobs,
) -> HybridRequest:
    """The flat spelling of a request: ``D`` pipelines of ``P`` devices.

    Exactly ``HybridRequest(..., layout=HybridLayout(1, p, d), ...)`` —
    the two compare equal and share a plan-cache entry.
    """
    return HybridRequest(scheme, cluster, model, HybridLayout(1, p, d),
                         num_microbatches, w, microbatch_size, **knobs)


def plan_key(req: HybridRequest, run: RunConfig) -> tuple:
    """The structural plan-cache key of one measurement: ``(*shape key,
    model)``.

    The shape key — ``plan_key(...)[:-1]`` — is everything the schedule,
    the action lists and the lowered control flow (and the group's
    shared :class:`~repro.config.PipelineConfig`) depend on: the
    layout, ``D`` *as compiled* (1 under ``overlap="model"``, which
    compiles no gradient rings), whether TP boundary all-reduces are
    compiled in, the micro-batch shape, waves and the run's compile
    knobs.  So overlap modes share a plan wherever they compile the
    same program (``D == 1`` at ``TP == 1``).  The model only sizes
    that shape (bytes, collective payloads and counts), so it is the
    last component and a re-bind axis like the cluster — which, with
    the capacity knob, is deliberately absent: devices, links and
    enforcement are per-call concerns resolved at re-time / execute,
    never compiled into the plan (see :mod:`.plans`).  Cells with equal
    keys are the lanes the batched measurement path stacks.
    """
    layout = req.layout
    simulated = req.overlap == "simulated"
    return (req.scheme, layout.tp, layout.p, layout.d,
            layout.d if simulated else 1, simulated and layout.tp > 1,
            req.num_microbatches, req.microbatch_size, req.w,
            run.prefetch, run.batch_cross_comm, req.model)


def _rejection(req: HybridRequest) -> ConfigError | None:
    """Why ``req`` cannot be measured on its cluster at all, if so."""
    if req.overlap not in OVERLAP_MODES:
        return ConfigError(
            f"unknown overlap mode {req.overlap!r}; expected one of "
            f"{OVERLAP_MODES}"
        )
    if req.layout.devices > req.cluster.num_devices:
        return ConfigError(
            f"{req.layout.describe()} needs {req.layout.devices} "
            f"devices; cluster has {req.cluster.num_devices}"
        )
    return None


def _bind_group(requests: Sequence[HybridRequest], key: tuple,
                run: RunConfig) -> tuple[PipelineConfig, Schedule, list]:
    """Build, prune and cost-bind the lanes of one plan group.

    ``requests`` share ``key`` (:func:`plan_key`), hence one schedule,
    one compiled program and one lowered plan — fetched from the plan
    cache, or size-bound against the first live lane from the group's
    :class:`~.plans.PlanShape` (``key[:-1]``; built first if no model
    has met this shape yet) and retained.  Per lane the only work is
    the cost-model lowering (TP-sharded), the O(P) static-memory
    pre-check and the plan re-time.  Returns ``(shared config,
    schedule, lanes)`` with ``lanes[j]`` either the live lane's
    ``(stage costs, bound plan)`` or its verdict: the
    :class:`ConfigError` of a TP degree its cluster's node cannot hold,
    or its statically-pruned result.  Raises the schedule builder's
    :class:`ConfigError` — a structural rejection, identical for every
    lane of the group.
    """
    head = requests[0]
    layout = head.layout
    simulated = head.overlap == "simulated"
    # every structural field config() reads is part of the group key
    cfg = head.config()
    plans = plan_cache()
    entry = plans.get(key)
    shape = entry.shape if entry is not None else plans.get_shape(key[:-1])
    cached = entry or shape
    with profiling.phase("build"):
        schedule = cached.schedule if cached is not None else \
            build_schedule(cfg)
        # model is part of the group key, so layers-per-stage and
        # boundary bytes agree across the group's lanes
        layers_per_stage = (head.model.num_layers + 2) / schedule.num_stages
        lanes: list = []
        for req in requests:
            base = stage_costs(req.model, schedule.num_stages,
                               req.cluster.device, req.microbatch_size)
            try:
                lanes.append(apply_tensor_parallel(
                    base, req.cluster, req.model, layout.tp,
                    req.microbatch_size, layers_per_stage,
                    include_comm=not simulated))
            except ConfigError as exc:
                # per-lane: TP degree vs *this* cluster's node size
                lanes.append(exc)
    live: list[int] = []
    for j, (req, costs) in enumerate(zip(requests, lanes)):
        if isinstance(costs, ConfigError):
            continue
        pruned = static_oom_result(cfg, req.cluster, req.model, schedule,
                                   costs, req.capacity())
        if pruned is None:
            live.append(j)
        else:
            lanes[j] = pruned
    if live:
        with profiling.phase("lower"):
            if entry is None:
                req, costs = requests[live[0]], lanes[live[0]]
                base = shape.program if shape is not None else \
                    compile_program(
                        schedule, prefetch=run.prefetch,
                        batch_cross_comm=run.batch_cross_comm).frozen()
                program = compile_cluster_program(
                    schedule, req.cluster, costs,
                    d=layout.d if simulated else 1, spacing=layout.tp,
                    shape=base)
                if simulated and layout.tp > 1:
                    program = with_tp_sync(
                        program, tp_rank_groups(req.cluster, layout),
                        nbytes=req.model.boundary_bytes(
                            req.microbatch_size),
                        count_per_pass=2.0 * layers_per_stage)
                if shape is None:
                    plan = ExecutablePlan.lower(program)
                    shape = plans.put_shape(
                        key[:-1], PlanShape(schedule, base, plan))
                else:
                    plan = shape.plan.with_sizes(program)
                entry = plans.put(
                    key, PlanEntry(schedule, program, plan, shape))
            for j in live:
                req, costs = requests[j], lanes[j]
                lanes[j] = (costs, entry.bound_plan(
                    (req.cluster, costs, layout.tp),
                    lambda: ClusterCosts(costs, req.cluster, layout.tp)))
    return cfg, schedule, lanes


@dataclass
class HybridCell:
    """One compiled configuration, ready to simulate.

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
    """Compile one cell into a :class:`HybridCell`.

    What ``repro trace --cluster`` simulates at full detail — built by
    the very steps a measurement of the cell takes (a one-lane
    :func:`_bind_group`), through the same plan cache.
    ``simulated=True`` compiles TP boundary and DP gradient collectives
    into the program (comm excluded from stage durations);
    ``simulated=False`` folds TP comm into durations and leaves the
    program collective-free (the closed-form model).
    """
    run = run or RunConfig()
    req = HybridRequest(scheme, cluster, model, layout, num_microbatches,
                        w, microbatch_size, enforce_memory=False,
                        overlap="simulated" if simulated else "model")
    rejected = _rejection(req)
    if rejected is not None:
        raise rejected
    cfg, schedule, [lane] = _bind_group([req], plan_key(req, run), run)
    if isinstance(lane, ConfigError):
        raise lane
    costs, plan = lane
    return HybridCell(cfg=cfg, schedule=schedule, costs=costs,
                      program=plan.program, oracle=plan.costs, plan=plan)


def _measure(requests: Sequence[HybridRequest], run: RunConfig
             ) -> list[ThroughputResult | ConfigError]:
    """The body of :func:`measure_hybrid_throughput_batch`.

    Private so the single-cell entry points reach it without passing
    through a public name: whatever wraps those (call counters, span
    tracers) then sees a single-cell call once, not as a batch nested
    inside it.
    """
    outcomes: list[ThroughputResult | ConfigError | None] = \
        [None] * len(requests)
    #: lanes grouped by plan key and effective contention mode (plan
    #: structure is shared across modes, the event core is not)
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        outcomes[i] = _rejection(req)
        if outcomes[i] is None:
            groups.setdefault(
                (plan_key(req, run), run.contention or req.contention),
                []).append(i)

    items_by: dict[bool, list[tuple]] = {False: [], True: []}
    pending: list[tuple] = []
    for (key, mode), lane_ids in groups.items():
        group = [requests[i] for i in lane_ids]
        head, layout = group[0], group[0].layout
        label = (f"{head.scheme}/{head.model.name} TP{layout.tp} "
                 f"P{layout.p} D{layout.d} W{head.w} "
                 f"B{head.num_microbatches}x{head.microbatch_size} "
                 f"[{len(group)} lanes]")
        with profiling.cell(label):
            try:
                cfg, schedule, lanes = _bind_group(group, key, run)
            except ConfigError as exc:
                for i in lane_ids:
                    outcomes[i] = exc
                continue
        start = len(items_by[mode])
        ids: list[int] = []
        costs: list[StageCosts] = []
        for i, lane in zip(lane_ids, lanes):
            if isinstance(lane, tuple):
                ids.append(i)
                costs.append(lane[0])
                items_by[mode].append((lane[1], requests[i].capacity()))
            else:
                outcomes[i] = lane
        if ids:
            pending.append((mode, start, schedule, cfg,
                            layout.p * layout.tp, ids, costs))
    simulate_groups(requests, outcomes, items_by, pending, run)
    return outcomes


def measure_hybrid_throughput_batch(
    requests: Sequence[HybridRequest],
    run: RunConfig | None = None,
) -> list[ThroughputResult | ConfigError]:
    """Measure many cells at once, batching structure-sharing lanes.

    The one function that walks requests; every layout goes through it
    (TP = 1 and TP > 1 requests may be mixed freely) and a single-cell
    measurement is a one-request call.  Outcomes are returned in
    request order; an infeasible cell raises nothing here — its
    :class:`~repro.errors.ConfigError` is returned *as the outcome* so
    one infeasible cell cannot abort the batch (the sweep engine turns
    it into an infeasible record).

    Cells sharing a :func:`plan_key` share one schedule build and one
    compile/lower (through the plan cache) — the collectives are
    compiled into each group's program, so cost-only lanes (clusters,
    capacity variants) re-time the cached plan.  *All* groups' lanes
    then go through a single :func:`repro.runtime.batched.execute_many`
    call per contention mode, which re-groups them by control-flow
    congruence — so cells of *different* plan keys whose structures
    agree (e.g. two models on one layout) still stack into one lockstep
    batch, and an uncontended lane with nothing to stack with is a
    batch of one.  The accounting runs on the batch's lane-axis fold
    columns (:func:`simulate_groups`).  A lane's
    :class:`ThroughputResult` does not depend on what it was batched
    with — pinned by the sweep parity tests and by the goldens of
    ``benchmarks/e2e``.
    """
    return _measure(requests, run or RunConfig())


#: the name from when flat (TP = 1) cells had a harness of their own
measure_throughput_batch = measure_hybrid_throughput_batch


def _measure_one(req: HybridRequest,
                 run: RunConfig | None) -> ThroughputResult:
    [outcome] = _measure([req], run or RunConfig())
    if isinstance(outcome, ConfigError):
        raise outcome
    return outcome


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
    """Throughput (or OOM) of one (TP, PP, DP) layout on a cluster.

    A batch of one: the keyword surface is :class:`HybridRequest`'s,
    and the :class:`~repro.errors.ConfigError` an infeasible cell gets
    as its batch outcome is raised.
    """
    return _measure_one(HybridRequest(
        scheme, cluster, model, layout, num_microbatches, w,
        microbatch_size, enforce_memory, overlap, capacity_bytes), run)


def measure_throughput(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    p: int,
    num_microbatches: int,
    d: int = 1,
    w: int = 1,
    microbatch_size: int = 1,
    run: RunConfig | None = None,
    enforce_memory: bool = True,
    overlap: str = "simulated",
    capacity_bytes: int | None = None,
) -> ThroughputResult:
    """:func:`measure_hybrid_throughput` of ``D`` pipelines of ``P``
    devices (``TP = 1``)."""
    return _measure_one(ThroughputRequest(
        scheme, cluster, model, p, num_microbatches, d, w,
        microbatch_size, enforce_memory=enforce_memory, overlap=overlap,
        capacity_bytes=capacity_bytes), run)


def simulate_groups(requests, outcomes, items_by, pending, run) -> None:
    """Execute every pending lane and fold the groups into ``outcomes``.

    All ``(plan, capacity)`` lanes of a contention mode go through one
    :func:`repro.runtime.batched.execute_many`; each ``pending`` group
    — ``(mode, first row, schedule, cfg, ring_p, request indices, stage
    costs)`` — owns a contiguous row range of its mode's result and is
    folded by one :func:`throughput_from_simulation` call.
    """
    batches = {}
    n_lanes = len(items_by[False]) + len(items_by[True])
    if n_lanes:
        with profiling.cell(f"simulate [{n_lanes} lanes]"):
            with profiling.phase("simulate"):
                for mode, items in items_by.items():
                    if items:
                        mode_run = run if mode == run.contention else \
                            replace(run, contention=mode)
                        batches[mode] = execute_many(items, mode_run)
    for mode, start, schedule, cfg, ring_p, ids, costs in pending:
        batch = batches[mode]
        done: list[int] = []
        rows: list[int] = []
        lanes: list[tuple] = []
        for row, (i, lane_costs) in enumerate(zip(ids, costs), start):
            req = requests[i]
            err = batch.errors[row]
            if err is not None:
                outcomes[i] = runtime_oom_result(cfg, req.cluster,
                                                 req.model, err)
                continue
            done.append(i)
            rows.append(row)
            lanes.append((req.cluster, req.model, lane_costs, req.overlap))
        for i, result in zip(done, throughput_from_simulation(
                cfg, schedule, lanes, batch.fold, rows, ring_p=ring_p)):
            outcomes[i] = result
