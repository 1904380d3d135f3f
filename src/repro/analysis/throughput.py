"""End-to-end throughput measurement on a modeled cluster.

This is the harness behind Figs. 9–12: pick a scheme and a parallel
layout (``D`` pipelines of ``P`` devices each), lower the model onto the
cluster's GPUs, compile the schedule **plus its data-parallel gradient
collectives** into one Program, simulate the iteration, gate it against
GPU memory, and convert the result into sequences/second.

Gradient-sync overlap is **measured, not assumed**: the compiler
inserts a ring all-reduce after each stage's last backward
(:func:`repro.actions.with_gradient_sync`), the event core schedules
its ``2 * (D - 1)`` chunk steps against the same link model as the
pipeline P2P, and the iteration ends when both compute and the last
collective finish.  The closed-form ring model
(:func:`dp_allreduce_seconds`) is retained as an upper-bound
cross-check and as the explicitly-named ``overlap="model"`` analytic
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..actions.collectives import with_gradient_sync
from ..actions.lowering import ExecutablePlan
from ..actions.program import Program, compile_program
from ..actions.resources import StageResources
from .. import profiling
from ..cluster.comm_model import CommModel, Transfer
from ..cluster.presets import Cluster
from ..cluster.topology import ring_transfer_chain
from ..config import PipelineConfig, RunConfig
from ..errors import ConfigError, OutOfMemoryError
from ..models.costs import StageCosts, stage_costs
from ..models.spec import ModelSpec
from ..runtime.batched import execute_many
from ..runtime.costs import ConcreteCosts
from ..runtime.events import execute_plan
from ..runtime.memory import static_memory
from ..runtime.metrics import LaneFold, fold_events
from ..schedules.base import Schedule
from ..schedules.factory import build_schedule
from ..types import seq_sum
from .plans import PlanEntry, plan_cache

#: gradient-sync fraction the *analytic* fallback assumes is hidden
#: under backward compute (bucketed all-reduce as in Megatron /
#: DeepSpeed).  Only ``overlap="model"`` reads this; the default
#: ``overlap="simulated"`` path measures the fraction from events.
ANALYTIC_DP_OVERLAP = 0.9

#: accepted values of the ``overlap`` knob
OVERLAP_MODES = ("simulated", "model")


def _pipeline_comm(cluster: Cluster, pipeline_index: int, p: int) -> CommModel:
    """Comm model seen by one pipeline, with ranks offset into the cluster.

    Pipelines are laid out in contiguous rank blocks: pipeline ``i``
    owns cluster ranks ``[i*P, (i+1)*P)`` — the standard Megatron
    layout that keeps pipeline P2P local and spreads DP across blocks.
    """
    base = pipeline_index * p

    class _Shifted(CommModel):
        def __init__(self) -> None:
            super().__init__(topology=cluster.topology)

        def transfer_time(self, transfer: Transfer) -> float:
            return super().transfer_time(
                Transfer(transfer.src + base, transfer.dst + base,
                         transfer.nbytes)
            )

    return _Shifted()


@dataclass
class ThroughputResult:
    """One measured configuration."""

    config: PipelineConfig
    cluster_name: str
    model_name: str
    seq_per_s: float | None          # None ⇔ OOM
    bubble_ratio: float | None
    peak_mem_bytes: float | None
    iteration_s: float | None
    oom_device: int | None = None
    #: True when the static residency bytes alone exceeded capacity —
    #: the cell was rejected in O(P) without entering the event loop.
    #: OOM cells with ``False`` were aborted mid-simulation instead.
    statically_pruned: bool = False
    #: gradient-sync seconds the busiest device spends in ring steps
    #: (0 for D == 1)
    sync_s: float = 0.0
    #: gradient-sync seconds that extend the iteration past the compute
    #: makespan — the part pipeline bubbles could *not* hide
    sync_exposed_s: float = 0.0
    #: fraction of ``sync_s`` hidden under compute; None when there is
    #: no sync to hide (D == 1)
    sync_overlap: float | None = None
    #: closed-form ring upper bound (``dp_allreduce_seconds``), kept as
    #: a cross-check against the simulated ``sync_s``
    sync_model_s: float = 0.0
    #: "simulated" (overlap measured from events) or "model" (analytic
    #: ``ANALYTIC_DP_OVERLAP`` fallback)
    overlap_mode: str = "simulated"

    @property
    def oom(self) -> bool:
        return self.seq_per_s is None

    def describe(self) -> str:
        if self.oom:
            tag = "static" if self.statically_pruned else "runtime"
            return (f"{self.config.describe():40s} {self.cluster_name:5s} "
                    f"OOM (device {self.oom_device}, {tag})")
        text = (f"{self.config.describe():40s} {self.cluster_name:5s} "
                f"{self.seq_per_s:6.2f} seq/s  "
                f"bubble={self.bubble_ratio * 100:4.1f}%  "
                f"peak={self.peak_mem_bytes / 2**30:5.1f} GiB")
        if self.sync_overlap is not None:
            text += f"  sync-overlap={self.sync_overlap * 100:4.1f}%"
        return text


def static_oom_result(cfg: PipelineConfig, cluster: Cluster,
                      model: ModelSpec, schedule, costs,
                      capacity: int | None) -> ThroughputResult | None:
    """The O(P) static-memory pre-check, as a pruned result.

    Returns a ``statically_pruned`` OOM :class:`ThroughputResult` for
    the lowest device whose resident weights alone exceed ``capacity``,
    or ``None`` when every device's static footprint fits (the cell
    must then be simulated to get a verdict) or ``capacity`` is ``None``
    (enforcement off).  Shared by the throughput and hybrid harnesses
    so the pruned-result shape cannot drift.
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
    (``spacing`` is the tensor-parallel degree in hybrid layouts) and
    reduces with its mirrors one pipeline block — ``p * spacing`` ranks
    — apart.  Raises :class:`~repro.errors.ConfigError` when any group
    member falls outside the cluster, instead of letting the rank leak
    surface later as a raw networkx routing error.
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


def stage_grad_bytes(costs: StageCosts) -> dict[int, float]:
    """fp32 gradient bytes per stage.

    ``weight_bytes`` bundles params+grads+optimizer at 16 B/param;
    the all-reduced gradients alone are 4 B/param.
    """
    return {s: w / 16.0 * 4.0 for s, w in enumerate(costs.weight_bytes)}


def compile_cluster_program(
    schedule: Schedule,
    cluster: Cluster,
    costs: StageCosts,
    d: int = 1,
    run: RunConfig | None = None,
    spacing: int = 1,
) -> Program:
    """Lower a schedule onto a cluster, gradient collectives included.

    The one compilation path the throughput harness, the hybrid
    harness, and ``repro trace --dp`` share: compile the schedule with
    byte-accurate tensors and memory resources, then — for ``d > 1`` —
    insert the per-stage DP gradient rings over their concrete cluster
    rank groups (``spacing`` is the tensor-parallel degree of hybrid
    layouts).
    """
    run = run or RunConfig()
    program = compile_program(
        schedule,
        prefetch=run.prefetch,
        batch_cross_comm=run.batch_cross_comm,
        add_step=False,
        boundary_bytes=float(costs.boundary_bytes),
        resources=StageResources.from_stage_costs(costs),
    )
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
    accounting tail of the flat and hybrid harnesses, batched (once per
    plan group) and scalar (N = 1) alike, so the paths cannot drift
    apart: the closed-form ring cross-check over ``ring_p`` in-ring
    devices (``P`` flat, ``P * TP`` hybrid), the simulated-vs-analytic
    overlap branch, and iteration = ``busy_end + exposed sync``.
    Simulated overlap reads the fold: ``sync_s`` is the busiest
    device's gradient-ring seconds, the exposure the iteration's
    extension past ``busy_end`` (trailing TP all-reduces are *busy*
    time, not sync exposure), the overlap the hidden fraction ``1 -
    exposed / sync`` — the number the paper's Sec. 3.2 claim is about.
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


def flat_plan_key(scheme: str, p: int, num_microbatches: int,
                  microbatch_size: int, d: int, sync_d: int, w: int,
                  run: RunConfig, model: ModelSpec) -> tuple:
    """The structural plan-cache key of one flat measurement.

    Everything the compiled program + lowered plan depend on; the
    cluster and the capacity knob are deliberately absent — devices,
    links and enforcement are per-call concerns resolved at re-time /
    execute, never compiled into the plan (see :mod:`.plans`).  Cells
    with equal keys are the lanes the batched measurement path stacks.
    """
    return ("flat", scheme, p, num_microbatches, microbatch_size, d,
            sync_d, w, run.prefetch, run.batch_cross_comm, model)


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
    """Simulate one configuration and return sequences/second (or OOM).

    ``overlap`` selects how data-parallel gradient synchronisation is
    charged.  ``"simulated"`` (the default) compiles the per-stage ring
    all-reduces into the program and lets the event core measure how
    much of them pipeline bubbles hide; ``"model"`` is the analytic
    fallback — closed-form ring time discounted by the assumed
    :data:`ANALYTIC_DP_OVERLAP` fraction — kept for cross-checks and
    for comparison with the paper's own estimates.

    Memory is enforced *live*: statically-infeasible cells (weights +
    grads + optimizer alone exceed capacity) are rejected in O(P)
    before any simulation, and all other OOM cells abort the event
    loop at a violating allocation — OOM verdicts never pay a full
    simulation.  ``capacity_bytes`` overrides the cluster device's
    memory (a ``--capacity-gib`` what-if).
    """
    if overlap not in OVERLAP_MODES:
        raise ConfigError(
            f"unknown overlap mode {overlap!r}; expected one of "
            f"{OVERLAP_MODES}"
        )
    if p * d > cluster.num_devices:
        raise ConfigError(
            f"layout P={p} x D={d} exceeds cluster of {cluster.num_devices}"
        )
    run = run or RunConfig()
    capacity = enforced_capacity(cluster, capacity_bytes, enforce_memory)
    cfg = PipelineConfig(
        scheme=scheme,
        num_devices=p,
        num_microbatches=num_microbatches,
        num_waves=w,
        data_parallel=d,
        microbatch_size=microbatch_size,
    )
    sync_d = d if overlap == "simulated" else 1
    plans = plan_cache()
    key = flat_plan_key(scheme, p, num_microbatches, microbatch_size,
                        d, sync_d, w, run, model)
    entry = plans.get(key)
    with profiling.phase("build"):
        schedule = entry.schedule if entry is not None else \
            build_schedule(cfg)
        costs = stage_costs(model, schedule.num_stages, cluster.device,
                            microbatch_size)
    pruned = static_oom_result(cfg, cluster, model, schedule, costs,
                               capacity)
    if pruned is not None:
        return pruned
    with profiling.phase("lower"):
        if entry is None:
            program = compile_cluster_program(schedule, cluster, costs,
                                              d=sync_d, run=run)
            entry = plans.put(key, PlanEntry(
                schedule, program, ExecutablePlan.lower(program)))
        plan = entry.bound_plan(
            (cluster, costs, p),
            lambda: ConcreteCosts(costs, _pipeline_comm(cluster, 0, p)))
    try:
        with profiling.phase("simulate"):
            result = execute_plan(plan, run, capacity_bytes=capacity,
                                  detail="lean")
    except OutOfMemoryError as exc:
        return runtime_oom_result(cfg, cluster, model, exc)
    return throughput_from_simulation(
        cfg, schedule, [(cluster, model, costs, overlap)],
        fold_events(result), [0], ring_p=p)[0]


@dataclass(frozen=True)
class ThroughputRequest:
    """One cell of a batched measurement (flat harness, TP = 1).

    Field-for-field the keyword surface of :func:`measure_throughput`;
    a list of these is what :func:`measure_throughput_batch` groups by
    structural plan key and executes in lockstep.
    """

    scheme: str
    cluster: Cluster
    model: ModelSpec
    p: int
    num_microbatches: int
    d: int = 1
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
            num_devices=self.p,
            num_microbatches=self.num_microbatches,
            num_waves=self.w,
            data_parallel=self.d,
            microbatch_size=self.microbatch_size,
        )


def measure_throughput_batch(
    requests: list[ThroughputRequest],
    run: RunConfig | None = None,
) -> list[ThroughputResult | ConfigError]:
    """Measure many cells at once, batching structure-sharing lanes.

    Outcomes are returned in request order; a cell
    :func:`measure_throughput` would reject raises nothing here — its
    :class:`~repro.errors.ConfigError` is returned *as the outcome* so
    one infeasible cell cannot abort the batch (the sweep engine turns
    it into the same infeasible record a raise would have).

    Cells sharing a :func:`flat_plan_key` share one schedule build and
    one compile/lower (through the plan cache); *all* groups' lanes
    then go through a single :func:`repro.runtime.batched.execute_many`
    call, which re-groups them by control-flow congruence — so cells of
    *different* plan keys whose structures agree (e.g. two models on
    one layout) still stack into one lockstep batch.  Per lane the only
    remaining work is the cost re-time and the lazy duration fill; the
    accounting runs on the batch's lane-axis fold columns
    (:func:`simulate_groups`).  Every produced :class:`ThroughputResult` is
    exactly what a scalar :func:`measure_throughput` of that cell
    returns — pinned by the sweep parity tests and the
    ``fig09_batched`` benchmark's cross-check.
    """
    run = run or RunConfig()
    outcomes: list[ThroughputResult | ConfigError | None] = \
        [None] * len(requests)
    #: lanes grouped by plan key and effective contention mode (plan
    #: structure is shared across modes, the event core is not)
    groups: dict[tuple, list[int]] = {}
    for i, req in enumerate(requests):
        if req.overlap not in OVERLAP_MODES:
            outcomes[i] = ConfigError(
                f"unknown overlap mode {req.overlap!r}; expected one of "
                f"{OVERLAP_MODES}"
            )
            continue
        if req.p * req.d > req.cluster.num_devices:
            outcomes[i] = ConfigError(
                f"layout P={req.p} x D={req.d} exceeds cluster of "
                f"{req.cluster.num_devices}"
            )
            continue
        sync_d = req.d if req.overlap == "simulated" else 1
        key = flat_plan_key(req.scheme, req.p, req.num_microbatches,
                            req.microbatch_size, req.d, sync_d, req.w,
                            run, req.model)
        groups.setdefault((key, run.contention or req.contention),
                          []).append(i)

    plans = plan_cache()
    items_by: dict[bool, list[tuple]] = {False: [], True: []}
    pending: list[tuple] = []
    for (key, mode), lane_ids in groups.items():
        head = requests[lane_ids[0]]
        sync_d = head.d if head.overlap == "simulated" else 1
        label = (f"{head.scheme}/{head.model.name} P{head.p} D{head.d} "
                 f"W{head.w} B{head.num_microbatches}"
                 f"x{head.microbatch_size} [{len(lane_ids)} lanes]")
        # every structural field config() reads is part of the group key
        group_cfg = head.config()
        with profiling.cell(label):
            entry = plans.get(key)
            with profiling.phase("build"):
                try:
                    schedule = entry.schedule if entry is not None else \
                        build_schedule(group_cfg)
                except ConfigError as exc:
                    # structural rejection: the verdict (and message)
                    # is identical for every lane of the group
                    for i in lane_ids:
                        outcomes[i] = exc
                    continue
                lane_costs = [
                    stage_costs(requests[i].model, schedule.num_stages,
                                requests[i].cluster.device,
                                requests[i].microbatch_size)
                    for i in lane_ids
                ]
            live: list[int] = []     # positions into lane_ids
            for pos, i in enumerate(lane_ids):
                req = requests[i]
                outcomes[i] = static_oom_result(
                    group_cfg, req.cluster, req.model, schedule,
                    lane_costs[pos], request_capacity(req))
                if outcomes[i] is None:
                    live.append(pos)
            if not live:
                continue
            with profiling.phase("lower"):
                if entry is None:
                    pos = live[0]
                    program = compile_cluster_program(
                        schedule, requests[lane_ids[pos]].cluster,
                        lane_costs[pos], d=sync_d, run=run)
                    entry = plans.put(key, PlanEntry(
                        schedule, program, ExecutablePlan.lower(program)))
                start = len(items_by[mode])
                for pos in live:
                    req = requests[lane_ids[pos]]
                    costs = lane_costs[pos]
                    plan = entry.bound_plan(
                        (req.cluster, costs, req.p),
                        lambda req=req, costs=costs: ConcreteCosts(
                            costs, _pipeline_comm(req.cluster, 0, req.p)))
                    items_by[mode].append((plan, request_capacity(req)))
            pending.append((mode, start, schedule, group_cfg, head.p,
                            [lane_ids[pos] for pos in live],
                            [lane_costs[pos] for pos in live]))
    simulate_groups(requests, outcomes, items_by, pending, run)
    return outcomes


def enforced_capacity(cluster: Cluster, capacity_bytes: int | None,
                      enforce_memory: bool) -> int | None:
    """The device capacity a measurement enforces — the what-if or the
    card's — or ``None`` when enforcement is off."""
    if not enforce_memory:
        return None
    return (cluster.device.memory_bytes if capacity_bytes is None
            else capacity_bytes)


def request_capacity(req) -> int | None:
    return enforced_capacity(req.cluster, req.capacity_bytes,
                             req.enforce_memory)


def simulate_groups(requests, outcomes, items_by, pending, run) -> None:
    """Execute every pending lane and fold the groups into ``outcomes``.

    The tail the flat and hybrid batch harnesses share.  All
    ``(plan, capacity)`` lanes of a contention mode go through one
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
