"""Shared primitive types for schedules and runtimes.

The schedule IR is deliberately tiny: a schedule is a per-device ordered
list of :class:`ScheduleOp`.  Everything else in the library (analysis,
compilation to action lists, simulation, real execution) is derived from
this one representation, which is what lets a single runtime execute any
pipeline-parallel algorithm (the paper's "unified framework" claim).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator


def seq_sum(terms, start=0.0):
    """Left-to-right sum of ``terms`` — floats or ``[N]`` lane vectors.

    Builtin ``sum()`` is naive up to Python 3.11 and Neumaier-compensated
    from 3.12, and ``np.sum`` adds pairwise; the simulator's folded
    statistics are pinned bit for bit, so every fold — the scalar
    timeline accounting and the lane-axis one alike — accumulates
    through this one explicit loop instead.
    """
    total = start
    for term in terms:
        total = total + term
    return total


class OpKind(enum.Enum):
    """The two compute op kinds in a training pipeline."""

    FORWARD = "F"
    BACKWARD = "B"

    # Members are singletons compared by identity: hash at C speed
    # instead of through ``Enum.__hash__``'s Python-level
    # ``hash(self._name_)`` — compute keys are hashed millions of times
    # per schedule search.  No result may depend on the value (``str``
    # hashes are per-process randomized already).
    __hash__ = object.__hash__

    @property
    def short(self) -> str:
        return self.value

    def __repr__(self) -> str:  # compact reprs keep test output readable
        return self.value


# Direction of a pipeline pass.  Bidirectional (Chimera) and wave
# (Hanayo) schedules use both; classic pipelines only DOWN.
class Direction(enum.Enum):
    DOWN = +1   # stage index increases with device index
    UP = -1     # stage index decreases with device index


@dataclass(frozen=True, order=True)
class ScheduleOp:
    """One unit of compute in a pipeline schedule.

    Attributes
    ----------
    kind:
        Forward or backward.
    microbatch:
        Micro-batch index in ``[0, B)``.
    stage:
        Global pipeline stage index in ``[0, S)``.  Stage 0 holds the
        first layers of the model, stage S-1 the last.
    device:
        Worker rank executing this op.
    chunk:
        Local model-chunk index on ``device`` (the paper's "local module
        rank"): position of ``stage`` in the device's stage list.
    replica:
        Pipeline replica id (Chimera keeps two model replicas; all other
        schemes use replica 0).
    """

    # Order matters only for deterministic sorting in tests; runtime
    # ordering is positional within each device list.
    device: int
    kind: OpKind
    microbatch: int
    stage: int
    chunk: int = 0
    replica: int = 0

    @property
    def key(self) -> tuple:
        """Identity of the work item independent of placement."""
        return (self.kind, self.microbatch, self.stage)

    def with_device(self, device: int, chunk: int | None = None) -> "ScheduleOp":
        return replace(self, device=device, chunk=self.chunk if chunk is None else chunk)

    def __str__(self) -> str:
        return f"{self.kind.short}(m{self.microbatch},s{self.stage})@d{self.device}"


@dataclass(frozen=True)
class TimedOp:
    """A schedule op bound to an execution interval by a cost model."""

    op: ScheduleOp
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TimedOp") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class Timeline:
    """Per-device timed ops, the output of simulation.

    ``spans[d]`` is the time-ordered list of :class:`TimedOp` executed by
    device ``d``.  ``makespan`` is the end of the last op anywhere.
    """

    spans: dict[int, list[TimedOp]] = field(default_factory=dict)

    def add(self, top: TimedOp) -> None:
        self.spans.setdefault(top.op.device, []).append(top)

    @property
    def devices(self) -> list[int]:
        return sorted(self.spans)

    @property
    def makespan(self) -> float:
        ends = [t.end for spans in self.spans.values() for t in spans]
        return max(ends) if ends else 0.0

    @property
    def start_time(self) -> float:
        starts = [t.start for spans in self.spans.values() for t in spans]
        return min(starts) if starts else 0.0

    def busy_time(self, device: int) -> float:
        return seq_sum(t.end - t.start for t in self.spans.get(device, ()))

    def iter_ops(self) -> Iterator[TimedOp]:
        for spans in self.spans.values():
            yield from spans

    def device_spans(self, device: int) -> list[TimedOp]:
        return list(self.spans.get(device, ()))

    # -- serialization (archiving simulated results) ----------------------

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            str(d): [
                {
                    "kind": t.op.kind.value,
                    "microbatch": t.op.microbatch,
                    "stage": t.op.stage,
                    "chunk": t.op.chunk,
                    "replica": t.op.replica,
                    "start": t.start,
                    "end": t.end,
                }
                for t in spans
            ]
            for d, spans in self.spans.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        tl = cls()
        for d_str, spans in data.items():
            device = int(d_str)
            for rec in spans:
                op = ScheduleOp(
                    device=device,
                    kind=OpKind(rec["kind"]),
                    microbatch=rec["microbatch"],
                    stage=rec["stage"],
                    chunk=rec["chunk"],
                    replica=rec["replica"],
                )
                tl.add(TimedOp(op=op, start=rec["start"], end=rec["end"]))
        return tl


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary unit, for reports."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")
