"""Simulation front door: compile once, execute the program IR.

``simulate`` lowers a schedule to the single execution IR
(:func:`repro.actions.compile_program`) and times it with the
event-driven core in :mod:`repro.runtime.events` — the same per-worker
action lists the real NumPy engine interprets, so prefetch and
batched-P2P semantics are identical across the modeled and real paths
by construction (the parity suite asserts it).

Prefetching (paper Sec. 4.2) decides *who pays* for a transfer:

* ``prefetch=True`` — receives are posted ahead (asynchronous
  communication), so transfers overlap the receiver's previous compute
  and only surface as recv wait when the receiver is otherwise idle.
* ``prefetch=False`` — the receiver blocks for each transfer: the
  transfer occupies the receiver's clock and is charged to its
  ``recv_busy`` account (timelines keep compute spans only, so the
  blocked time counts as bubble, per the paper's convention).

The gap between those two modes is the paper's communication-overlap
claim, which `benchmarks/bench_ablation_prefetch.py` quantifies via the
per-device ``recv_busy`` accounting — populated in **both** modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..actions.lowering import ExecutablePlan
from ..actions.ops import Action
from ..actions.program import Program, compile_program
from ..actions.resources import StageResources
from ..config import RunConfig
from ..errors import SchedulingError
from ..schedules.base import Schedule
from ..types import Timeline
from .. import profiling
from .costs import CostOracle
from .events import (
    CollectiveEvent,
    CommEvent,
    MemoryEvent,
    execute_plan,
    execute_program,
)
from .memory import MemoryStats


@dataclass
class SimResult:
    """Everything a simulation produces."""

    schedule: Schedule | None
    timeline: Timeline
    #: per-device seconds stalled on incoming tensors: full transfer
    #: durations without prefetch, residual (un-overlapped) arrival
    #: waits with prefetch — never silently empty while transfers
    #: cost time
    recv_busy: dict[int, float] = field(default_factory=dict)
    #: the execution IR this result was produced from
    program: Program | None = None
    #: every point-to-point transfer, in posting order
    comm: list[CommEvent] = field(default_factory=list)
    #: per-device executed action order (the parity witness: equals the
    #: program's action lists action-for-action)
    action_order: dict[int, list[Action]] = field(default_factory=dict)
    #: per-device memory watermark peaks + statics, maintained live by
    #: the event core; None when the program carries no resources
    memory: MemoryStats | None = None
    #: every watermark change, in per-device execution order (feeds the
    #: Chrome-trace memory counter lanes)
    mem_events: list[MemoryEvent] = field(default_factory=list)
    #: every executed collective (ring all-reduces with per-step
    #: schedules), in posting order; empty for programs without
    #: compiled collectives
    collectives: list[CollectiveEvent] = field(default_factory=list)
    #: per-device end-of-program clocks (compute + blocking comm)
    device_end: dict[int, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.timeline.makespan


@dataclass
class TrainingSimResult:
    """A multi-iteration training run (synchronous schedules).

    A flush separates iterations, so every iteration replays the same
    timeline; total time is ``iterations * (makespan + step_cost)``.
    """

    iteration: SimResult
    iterations: int
    step_cost: float

    @property
    def iteration_time(self) -> float:
        return self.iteration.makespan + self.step_cost

    @property
    def total_time(self) -> float:
        return self.iterations * self.iteration_time


def simulate_training(
    schedule: Schedule,
    costs: CostOracle,
    run: RunConfig | None = None,
    step_cost: float = 0.0,
) -> TrainingSimResult:
    """Simulate ``run.iterations`` flushed iterations.

    The flush makes iterations independent, so one simulation suffices;
    ``step_cost`` charges the optimizer step + any per-iteration sync.
    """
    run = run or RunConfig()
    if step_cost < 0:
        raise SchedulingError("step_cost must be >= 0")
    one = simulate(schedule, costs, run)
    return TrainingSimResult(iteration=one, iterations=run.iterations,
                             step_cost=step_cost)


def simulate(
    schedule: Schedule,
    costs: CostOracle,
    run: RunConfig | None = None,
    *,
    resources: StageResources | None = None,
    capacity_bytes: int | None = None,
) -> SimResult:
    """Compile ``schedule`` to a program and execute it under ``costs``.

    Raises :class:`SchedulingError` if the per-device orders deadlock
    (an op waits for a producer that is queued behind it) — a condition
    :func:`repro.schedules.validation.check_executable` rules out for
    generator-produced schedules, but which hand-written schedules can
    trigger.

    ``resources`` annotates the compiled program with per-stage memory
    footprints, turning on live watermark tracking (``result.memory``);
    ``capacity_bytes`` additionally enforces a device capacity — the
    run aborts with :class:`~repro.errors.OutOfMemoryError` at the
    first violating allocation in replay order, after a free O(P)
    static pre-check.
    """
    run = run or RunConfig()
    with profiling.phase("lower"):
        program = compile_program(
            schedule,
            prefetch=run.prefetch,
            batch_cross_comm=run.batch_cross_comm,
            add_step=False,
            boundary_bytes=lambda tag: costs.tensor_nbytes(tag.stage),
            resources=resources,
        )
    return simulate_program(program, costs, run, schedule=schedule,
                            capacity_bytes=capacity_bytes)


def simulate_ordering(
    program: Program,
    orders,
    costs: CostOracle,
    run: RunConfig | None = None,
    *,
    capacity_bytes: int | None = None,
) -> SimResult:
    """Execute ``program`` under an externally supplied action ordering.

    ``orders`` maps each device to a permutation of that device's
    ordering entries (see :func:`repro.actions.reorder.reorder_program`,
    which performs the recompile).  This is the replay entry the
    schedule-synthesis pipeline uses: a serialized or searched ordering
    is recompiled against the base program and simulated exactly like
    any compiled schedule — including deadlocking or OOMing when the
    ordering is illegal, which the differential fuzz harness pins
    against the legality checker's verdict.
    """
    from ..actions.reorder import reorder_program

    reordered = reorder_program(program, orders)
    return simulate_program(reordered, costs, run,
                            capacity_bytes=capacity_bytes)


def simulate_program(
    program: Program,
    costs: CostOracle,
    run: RunConfig | None = None,
    schedule: Schedule | None = None,
    *,
    plan: ExecutablePlan | None = None,
    capacity_bytes: int | None = None,
) -> SimResult:
    """Execute an already-compiled program — sim side of the parity pair.

    The engine trainer exposes its compiled program
    (:attr:`repro.engine.PipelineTrainer.program`); passing that same
    object here guarantees the simulator times exactly the action
    sequence the engine executes.  Recv semantics (blocking vs
    overlapped) follow ``program.prefetch`` — the flag the program was
    compiled with — while ``run`` contributes fidelity knobs such as
    ``contention``.

    ``plan`` short-circuits the lowering pass: callers that already
    hold a cost-bound :class:`~repro.actions.lowering.ExecutablePlan`
    of this program (the sweep plan cache) execute it directly instead
    of re-lowering per call.
    """
    if plan is not None and plan.program is not program:
        raise SchedulingError(
            f"{program.name}: plan was lowered from a different program"
        )
    with profiling.phase("simulate"):
        if plan is not None:
            result = execute_plan(plan, run, capacity_bytes=capacity_bytes)
        else:
            result = execute_program(program, costs, run,
                                     capacity_bytes=capacity_bytes)
    return sim_result_from_events(program, result, schedule=schedule)


def sim_result_from_events(program: Program, result,
                           schedule: Schedule | None = None) -> SimResult:
    """Fold one :class:`~repro.runtime.events.EventResult` into a
    :class:`SimResult`.

    The single folding path :func:`simulate_program` and the batched
    measurement layer (:mod:`repro.runtime.batched` consumers) share,
    so the per-lane results of a lockstep run assemble exactly like a
    scalar simulation's.
    """
    memory = None
    if program.tracks_memory:
        memory = MemoryStats(static_bytes=dict(program.static_bytes),
                             peak_bytes=result.mem_peak)
    return SimResult(
        schedule=schedule,
        timeline=result.timeline,
        recv_busy=result.recv_wait,
        program=program,
        comm=result.comm,
        action_order=result.order,
        memory=memory,
        mem_events=result.mem_events,
        collectives=result.collectives,
        device_end=result.device_end,
    )
