"""Cost oracles: the tables a plan's cost binding reads.

An oracle is data, not a service asked per op.
:meth:`ExecutablePlan.retime <repro.actions.lowering.ExecutablePlan.retime>`
reads, per lane:

* its per-stage ``(forward, backward)`` seconds
  (:meth:`CostOracle.stage_durations`), gathered per compute;
* one :meth:`CostOracle.link` per distinct pair of global ranks the
  program sends along: the seconds and launch latency of one boundary
  tensor;
* :meth:`CostOracle.collective_link_time` per distinct ring pair and
  chunk, and the rank map :meth:`CostOracle.global_rank`.

Three oracles cover the experiment families:

* :class:`AbstractCosts` — the paper's symbolic ``T_F``/``T_B``/``T_C``
  model (Table 1).  Used for bubble-ratio figures where hardware is
  abstracted away.
* :class:`ClusterCosts` — per-stage seconds from a model spec lowered
  onto a device (:func:`repro.models.stage_costs`), with one pipeline
  placed on a cluster topology.  Used for throughput figures.
* :class:`ConcreteCosts` — the same stage seconds under a flat
  per-message cost ``t_c``: :class:`ClusterCosts`' base.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass

from ..cluster.presets import Cluster
from ..config import CostConfig
from ..errors import ConfigError
from ..models.costs import StageCosts


class CostOracle:
    """What a cost binding reads.  A subclass sets ``_tables``, its
    ``(forward, backward)`` seconds per stage, and answers :meth:`link`.
    """

    _tables: tuple[Sequence[float], Sequence[float]]

    def stage_durations(self) -> tuple[Sequence[float], Sequence[float]]:
        """``(forward, backward)`` seconds per stage: a compute costs
        its pass's cell of its stage, whatever its micro-batch."""
        return self._tables

    def with_recompute_from(self, frontier: int) -> "CostOracle":
        """This oracle with each backward at or past stage ``frontier``
        charged its stage's forward first (``b + f``): those stages keep
        only their boundary tensor and re-run the forward.  Links, rings
        and ranks are unchanged.  Mirrors
        :meth:`~repro.actions.resources.StageResources.with_recompute_from`.
        """
        forward, backward = self._tables
        oracle = copy.copy(self)
        oracle._tables = (forward, tuple(
            b + f if stage >= frontier else b
            for stage, (f, b) in enumerate(zip(forward, backward))))
        return oracle

    def link(self, a: int, b: int) -> tuple[float, float]:
        """``(seconds, latency)`` of one boundary tensor (activation or
        gradient) from global rank ``a`` to ``b != a``.  The latency is
        the part of the seconds one batched ``isend_irecv`` group pays
        once."""
        raise NotImplementedError

    def tensor_nbytes(self, stage: int) -> float:
        """Payload size of one boundary tensor, for program sizing and
        traces.  Abstract models have no byte notion (unit size)."""
        return 1.0

    def global_rank(self, device: int) -> int:
        """Cluster rank of a program-local device.

        Programs are compiled for one pipeline's workers ``0..P-1``;
        oracles that place the pipeline elsewhere in a cluster (TP
        spacing) override this so links, link contention and collective
        routes resolve against *physical* ranks.
        """
        return device

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        """Seconds for one ring-step chunk between **global** ranks."""
        raise ConfigError(
            f"{type(self).__name__} cannot time collectives "
            "(no topology route between global ranks)"
        )


@dataclass
class AbstractCosts(CostOracle):
    """Symbolic unit costs; durations follow Table 1 conventions.

    ``T_F`` is one device-worth of forward compute, so a single chunk
    stage costs ``T_F * P / S`` (each device holds ``S / P`` chunks).
    """

    costs: CostConfig
    num_devices: int
    num_stages: int

    def __post_init__(self) -> None:
        if self.num_stages % self.num_devices:
            raise ConfigError(
                f"S={self.num_stages} not divisible by P={self.num_devices}"
            )
        per_stage = self.num_devices / self.num_stages
        self._tables = ((self.costs.t_f * per_stage,) * self.num_stages,
                        (self.costs.t_b * per_stage,) * self.num_stages)

    def link(self, a: int, b: int) -> tuple[float, float]:
        return self.costs.t_c, 0.0

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        # Abstract comm is per-message: a ring chunk costs one t_c hop.
        return 0.0 if a == b else self.costs.t_c


@dataclass(eq=False)
class ConcreteCosts(CostOracle):
    """Stage seconds of a lowered model; every message costs ``t_c``
    (no latency split, so batching saves nothing)."""

    stage_costs: StageCosts
    t_c: float = 0.0

    def __post_init__(self) -> None:
        if self.t_c < 0:
            raise ConfigError("t_c must be >= 0")
        self._tables = (self.stage_costs.forward, self.stage_costs.backward)

    def link(self, a: int, b: int) -> tuple[float, float]:
        return self.t_c, 0.0

    def tensor_nbytes(self, stage: int) -> float:
        return self.stage_costs.boundary_bytes

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        return 0.0 if a == b else self.t_c


class ClusterCosts(ConcreteCosts):
    """Cost oracle of one pipeline placed on a cluster.

    Pipeline peers sit ``tp`` ranks apart in the cluster topology
    (rank = tp_rank + tp * pp_rank), so the program-local → global rank
    map spaces by the TP degree — which is what routes pipeline links,
    DP/TP collective rings and link contention onto the *physical*
    ranks.  ``tp = 1`` is the flat layout: pipeline 0 on ranks
    ``0..P-1``.
    """

    def __init__(self, stage_costs: StageCosts, cluster: Cluster,
                 tp: int = 1) -> None:
        super().__init__(stage_costs)
        self.topology = cluster.topology
        self._tp = tp

    def global_rank(self, device: int) -> int:
        return device * self._tp

    def link(self, a: int, b: int) -> tuple[float, float]:
        found = self.topology.effective_link(a, b)
        return (found.transfer_time(self.stage_costs.boundary_bytes),
                found.latency)

    def collective_link_time(self, a: int, b: int, nbytes: float) -> float:
        return self.topology.transfer_time(a, b, nbytes)
