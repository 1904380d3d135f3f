"""The compiled execution IR: one :class:`Program`, every consumer.

The paper's central runtime claim (Sec. 4.1) is that the
scheduler-generated action list fully determines pipeline behavior.
This module makes that literal for the whole library: a ``Schedule`` is
lowered **once** into a :class:`Program` — per-worker action lists plus
the dataflow facts every backend needs — and both executions consume
it:

* the event-driven cost simulator (:mod:`repro.runtime.events`), which
  times the program against a :class:`~repro.runtime.costs.CostOracle`;
* the real NumPy engine (:mod:`repro.engine`), whose interpreter walks
  the same lists over thread workers and P2P channels.

Neither consumer re-derives communication from the schedule, so the
prefetch and batched-P2P semantics the benchmarks measure are — by
construction — exactly what the engine executes.

Beyond the raw lists, compilation grows three annotations:

* **Dependency edges** (:class:`Dependency`): for every compute, the
  producing computes it waits on, each resolved to a device and —
  when the tensor crosses devices — the wire :class:`Tag` a ``Recv``
  delivers.  The simulator times the program from these edges alone.
* **Per-action tensor sizes**: ``tensor_bytes`` maps every in-flight
  tag to its payload size, so trace exporters and contention models
  know what each message weighs.
* **Memory effects** (optional, via :class:`StageResources`): static
  weight/grad/optimizer bytes per resident ``(stage, replica)`` pair —
  ×2 naturally for Chimera's two replicas — plus an activation
  allocation on every forward start and the matching free on the
  backward end, so the program alone determines each device's memory
  trajectory and the event core can enforce a capacity live.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

from ..errors import OutOfMemoryError, ValidationError
from ..schedules.base import Schedule
from ..types import OpKind, ScheduleOp
from .compiler import compile_schedule
from .ops import (
    Action,
    BatchedP2P,
    CommKind,
    ComputeBackward,
    ComputeForward,
    Recv,
    Send,
    Tag,
)
from .resources import StageResources

#: Identity of one compute: ``(kind, microbatch, stage)``.
ComputeKey = tuple  # tuple[OpKind, int, int]


@dataclass(frozen=True)
class Dependency:
    """One dataflow input of a compute action.

    ``producer`` is the compute that makes the tensor, ``src`` the
    device it runs on.  ``tag`` is the wire identity when the tensor
    crosses devices (a matching ``Recv`` exists in the consumer's
    action list); ``None`` marks a local hand-off with no comm action.
    """

    producer: ComputeKey
    src: int
    tag: Tag | None = None

    @property
    def remote(self) -> bool:
        return self.tag is not None


@dataclass
class Program:
    """Per-worker action lists plus the dataflow facts of one iteration.

    The single execution IR: ``actions[d]`` is worker ``d``'s program
    (order is semantics — reordering changes the algorithm under test),
    ``ops``/``deps`` carry the compute metadata the simulator times,
    and ``tensor_bytes`` sizes every in-flight tensor.
    """

    name: str
    num_devices: int
    num_stages: int
    num_microbatches: int
    prefetch: bool
    batch_cross_comm: bool
    actions: dict[int, list[Action]]
    #: compute key -> originating ScheduleOp (device/chunk/replica kept
    #: so timelines, memory tracking and viz stay placement-aware)
    ops: dict[ComputeKey, ScheduleOp] = field(default_factory=dict)
    #: compute key -> dataflow inputs
    deps: dict[ComputeKey, tuple[Dependency, ...]] = field(default_factory=dict)
    #: wire tag -> payload bytes
    tensor_bytes: dict[Tag, float] = field(default_factory=dict)
    #: device -> resident (stage, replica) pairs in chunk order — the
    #: placement facts memory accounting needs, kept so re-annotating
    #: resources never has to re-derive them from a schedule
    resident: dict[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict)
    #: per-stage byte footprints; None for byte-blind (abstract) runs
    resources: StageResources | None = None
    #: device -> static bytes (weights+grads+optimizer of every resident
    #: stage); empty when the program carries no resources
    static_bytes: dict[int, float] = field(default_factory=dict)

    # -- shape -----------------------------------------------------------

    def action_count(self) -> int:
        return sum(len(acts) for acts in self.actions.values())

    def compute_count(self) -> int:
        return len(self.ops)

    def message_count(self) -> int:
        """Cross-device messages (sends, batched groups expanded)."""
        total = 0
        for acts in self.actions.values():
            for act in acts:
                if isinstance(act, Send):
                    total += 1
                elif isinstance(act, BatchedP2P):
                    total += len(act.sends)
        return total

    # -- memory effects ---------------------------------------------------

    @property
    def tracks_memory(self) -> bool:
        """Whether execution can maintain per-device watermarks."""
        return self.resources is not None

    def with_resources(self, resources: StageResources | None) -> "Program":
        """Re-annotate this program with a different resource model.

        This is how Program-level memory transforms compose — e.g.
        activation recomputation is
        ``program.with_resources(program.resources.with_recompute())``.
        Action lists, dependency edges and tensor sizes are shared with
        the original (they are untouched by memory semantics).
        """
        if resources is not None and resources.num_stages != self.num_stages:
            raise ValidationError(
                f"{self.name}: resources cover {resources.num_stages} "
                f"stages, program has {self.num_stages}"
            )
        return dataclasses.replace(
            self,
            resources=resources,
            static_bytes=_static_bytes(self.resident, resources),
        )

    def with_sizes(self, boundary_bytes: float | Callable[[Tag], float],
                   resources: StageResources | None) -> "Program":
        """The size binding: this pipeline *shape* under other bytes.

        Action lists, ``ops``, ``deps`` and residency follow from the
        schedule and the compile knobs alone; only ``tensor_bytes``
        (``boundary_bytes``: a flat float, or a callable ``Tag ->
        bytes``), ``resources`` and ``static_bytes`` are the model's,
        and only they are rebuilt.  ``ops``/``deps`` stay shared,
        read-only by contract; the action lists are *copied* — the
        receiver may be a :meth:`frozen` shape other models bind too.
        """
        return dataclasses.replace(
            self.with_resources(resources),
            actions={d: list(acts) for d, acts in self.actions.items()},
            tensor_bytes=(
                {tag: float(boundary_bytes(tag)) for tag in self.tensor_bytes}
                if callable(boundary_bytes)
                # keys straight from the dict, with their stored hashes
                else dict.fromkeys(self.tensor_bytes, float(boundary_bytes))),
        )

    def frozen(self) -> "Program":
        """This program made safe to share: tuple action lists and
        read-only ``ops``/``deps``, so a holder that mutates in place
        raises instead of corrupting the other holders' view."""
        return dataclasses.replace(
            self,
            actions={d: tuple(acts) for d, acts in self.actions.items()},
            ops=MappingProxyType(self.ops),
            deps=MappingProxyType(self.deps),
        )

    def alloc_bytes(self, key: ComputeKey) -> float:
        """Bytes a compute pins when it *starts* (forward allocation)."""
        if self.resources is None or key[0] is not OpKind.FORWARD:
            return 0.0
        return self.resources.activation_bytes[key[2]]

    def free_bytes(self, key: ComputeKey) -> float:
        """Bytes a compute releases when it *ends* (backward free)."""
        if self.resources is None or key[0] is not OpKind.BACKWARD:
            return 0.0
        return self.resources.activation_bytes[key[2]]

    def check_static_memory(self, capacity_bytes: int) -> None:
        """O(P) feasibility pre-check: static footprint alone vs capacity.

        Raises :class:`~repro.errors.OutOfMemoryError` for the lowest
        violating device — *before* any event is simulated, which is
        what lets capacity-constrained sweeps reject hopeless cells for
        free.  A program without resources passes vacuously.
        """
        for device in sorted(self.static_bytes):
            static = self.static_bytes[device]
            if static > capacity_bytes:
                raise OutOfMemoryError(device, int(static), capacity_bytes)

    def validate(self, rendezvous: bool = False) -> None:
        """Static matching + deadlock-freedom over the action lists."""
        from .validate import validate_actions

        validate_actions(self.actions, rendezvous=rendezvous)

    def describe(self) -> str:
        return (f"program[{self.name}]: P={self.num_devices} "
                f"S={self.num_stages} B={self.num_microbatches} "
                f"actions={self.action_count()} "
                f"messages={self.message_count()}")


def compute_key(action: Action) -> ComputeKey | None:
    """``(kind, microbatch, stage)`` for a compute action, else ``None``."""
    if isinstance(action, ComputeForward):
        return (OpKind.FORWARD, action.microbatch, action.stage)
    if isinstance(action, ComputeBackward):
        return (OpKind.BACKWARD, action.microbatch, action.stage)
    return None


def _static_bytes(
    resident: dict[int, tuple[tuple[int, int], ...]],
    resources: StageResources | None,
) -> dict[int, float]:
    """Per-device static bytes, summed in chunk order.

    Chunk order matters for bit-identical float accumulation against
    the placement-walking replay (`runtime.memory.static_memory`).
    """
    if resources is None:
        return {}
    return {
        device: sum(resources.weight_bytes[stage]
                    for stage, _replica in pairs)
        for device, pairs in resident.items()
    }


def _dep_tag(dep: ComputeKey) -> Tag:
    """Wire identity of the tensor a dependency's producer emits."""
    kind, microbatch, stage = dep
    comm = CommKind.ACTIVATION if kind is OpKind.FORWARD else CommKind.GRADIENT
    return Tag(comm, microbatch, stage)


def compile_program(
    schedule: Schedule,
    prefetch: bool = True,
    batch_cross_comm: bool = True,
    add_step: bool = False,
    boundary_bytes: float | Callable[[Tag], float] = 1.0,
    resources: StageResources | None = None,
) -> Program:
    """Lower ``schedule`` to the single execution IR.

    A shape compile — everything but ``boundary_bytes`` and
    ``resources`` — followed by the size binding
    (:meth:`Program.with_sizes`, which documents those two), so a
    caller meeting one pipeline under several models compiles once with
    the unit defaults and re-binds per model.  ``add_step`` appends the
    ``Flush`` + ``OptimizerStep`` tail (off by default: both consumers
    charge the step explicitly).
    """
    lists = compile_schedule(
        schedule, prefetch=prefetch, batch_cross_comm=batch_cross_comm,
        add_step=add_step,
    )

    ops: dict[ComputeKey, ScheduleOp] = {}
    for op in schedule.all_ops():
        key = (op.kind, op.microbatch, op.stage)
        if key in ops:
            raise ValidationError(
                f"{schedule.name}: duplicate compute {op} in schedule"
            )
        ops[key] = op

    deps: dict[ComputeKey, tuple[Dependency, ...]] = {}
    for key, op in ops.items():
        edges = []
        for dep in schedule.dependencies(op):
            try:
                producer = ops[dep]
            except KeyError:
                raise ValidationError(
                    f"{schedule.name}: {op} depends on missing compute "
                    f"{dep[0].short}(m{dep[1]},s{dep[2]})"
                ) from None
            tag = _dep_tag(dep) if producer.device != op.device else None
            edges.append(Dependency(producer=dep, src=producer.device,
                                    tag=tag))
        deps[key] = tuple(edges)

    tensor_bytes: dict[Tag, float] = {}
    for acts in lists.values():
        for act in acts:
            sends = (act.sends if isinstance(act, BatchedP2P)
                     else (act,) if isinstance(act, Send) else ())
            for send in sends:
                tensor_bytes[send.tag] = 1.0

    resident = {
        device: tuple(schedule.placement.stages_on(device))
        for device in sorted(lists)
    }

    return Program(
        name=schedule.name,
        num_devices=schedule.num_devices,
        num_stages=schedule.num_stages,
        num_microbatches=schedule.num_microbatches,
        prefetch=prefetch,
        batch_cross_comm=batch_cross_comm,
        actions=lists,
        ops=ops,
        deps=deps,
        tensor_bytes=tensor_bytes,
        resident=resident,
    ).with_sizes(boundary_bytes, resources)
