"""Action IR: the instructions workers execute (paper Sec. 4.1).

The paper breaks DeepSpeed-style pipeline instructions "into smaller
granularities" augmented with the target device rank and the local
module (chunk) rank, so one runtime can drive any pipeline algorithm.
These dataclasses are that instruction set; a per-worker ``list[Action]``
is the *action list* the scheduler emits and the interpreter consumes.

Message identity: every tensor in flight is addressed by
``(kind, microbatch, stage)`` where ``kind`` distinguishes activations
(flowing forward) from gradients (flowing backward).  That tag is what
send/recv matching and deadlock detection key on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CommKind(enum.Enum):
    ACTIVATION = "act"
    GRADIENT = "grad"

    # identity hash at C speed, as for :class:`repro.types.OpKind`:
    # every ``Tag`` lookup hashes one of these
    __hash__ = object.__hash__


class CollectiveKind(enum.Enum):
    """What a :class:`CollectiveOp` synchronises."""

    #: data-parallel gradient all-reduce after a stage's last backward
    GRAD_SYNC = "grad_sync"
    #: tensor-parallel boundary all-reduces inside a stage pass
    TP_BOUNDARY = "tp_boundary"


@dataclass(frozen=True)
class Tag:
    """Wire identity of one tensor."""

    kind: CommKind
    microbatch: int
    stage: int

    def __str__(self) -> str:
        return f"{self.kind.value}(m{self.microbatch},s{self.stage})"


class Action:
    """Base class; concrete actions below."""

    __slots__ = ()


@dataclass(frozen=True)
class ComputeForward(Action):
    """Run the forward of ``stage`` (local chunk ``chunk``) for a micro-batch."""

    microbatch: int
    stage: int
    chunk: int

    def __str__(self) -> str:
        return f"F(m{self.microbatch},s{self.stage},c{self.chunk})"


@dataclass(frozen=True)
class ComputeBackward(Action):
    """Run the backward of ``stage`` for a micro-batch."""

    microbatch: int
    stage: int
    chunk: int

    def __str__(self) -> str:
        return f"B(m{self.microbatch},s{self.stage},c{self.chunk})"


@dataclass(frozen=True)
class Send(Action):
    """Send the tensor ``tag`` to ``peer`` (non-blocking post)."""

    peer: int
    tag: Tag

    def __str__(self) -> str:
        return f"send[{self.tag}]->d{self.peer}"


@dataclass(frozen=True)
class Recv(Action):
    """Receive the tensor ``tag`` from ``peer`` (blocking wait)."""

    peer: int
    tag: Tag

    def __str__(self) -> str:
        return f"recv[{self.tag}]<-d{self.peer}"


@dataclass(frozen=True)
class BatchedP2P(Action):
    """A ``batch_isend_irecv`` group: all posts issued before any wait.

    Opposing transfers between the same device pair (wave turns, Chimera
    cross-communication) must be grouped on both peers or a rendezvous
    backend deadlocks — the NCCL hazard of Sec. 4.2.
    """

    sends: tuple[Send, ...] = ()
    recvs: tuple[Recv, ...] = ()

    def __str__(self) -> str:
        parts = [str(s) for s in self.sends] + [str(r) for r in self.recvs]
        return "batch{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class CollectiveOp(Action):
    """One collective over a concrete rank group, ring-decomposed.

    ``group`` holds the *global cluster ranks* participating (the owning
    worker's own global rank included); execution decomposes the
    all-reduce into its ``2 * (len(group) - 1)`` per-chunk ring steps
    over concrete topology routes — see
    :mod:`repro.actions.collectives`.  ``nbytes`` is the full payload
    each participant contributes (the ring moves ``nbytes / D`` chunks).

    ``blocking`` distinguishes the two uses: tensor-parallel boundary
    all-reduces gate the owning worker's next action (they sit on the
    compute critical path), while data-parallel gradient syncs are
    posted asynchronously and only bound the *iteration* end — which is
    exactly what lets them hide inside pipeline bubbles.  ``count``
    scales the collective to ``count`` back-to-back identical rings
    (fractional for per-layer TP all-reduces averaged over a stage).
    """

    kind: CollectiveKind
    group: tuple[int, ...]
    nbytes: float
    stage: int
    replica: int = 0
    blocking: bool = False
    count: float = 1.0

    def __str__(self) -> str:
        mode = "sync" if self.blocking else "async"
        return (f"{self.kind.value}[s{self.stage}]"
                f"@ranks{list(self.group)} ({mode})")


@dataclass(frozen=True)
class OptimizerStep(Action):
    """Apply accumulated gradients (end of a synchronous iteration)."""

    def __str__(self) -> str:
        return "step"


@dataclass(frozen=True)
class Flush(Action):
    """Synchronisation barrier across all workers before the step."""

    def __str__(self) -> str:
        return "flush"


#: One worker's program.
ActionList = list  # list[Action]; alias for signature readability
