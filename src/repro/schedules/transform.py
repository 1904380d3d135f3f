"""The Chimera → wave transform of Sec. 3.2 (paper Fig. 5).

A 2-replica Chimera pipeline on ``P`` devices is turned into **two
identical one-wave pipelines** on ``P/2`` devices each (the replica pair
becomes plain data parallelism): swap every bright-pipe block on the
upper device half with the dark-pipe block at the symmetric position on
the lower half.  Computation order is unchanged and the swapped
boundaries become device-local, so the wave form is never slower — the
equivalence the test suite checks by simulating both.
"""

from __future__ import annotations

from ..config import PipelineConfig
from ..errors import ConfigError
from ..types import ScheduleOp
from .base import Schedule
from .greedy import GreedyPolicy, greedy_order, wave_priority
from .placement import SnakePlacement


def chimera_wave_schedule(config: PipelineConfig, open_cap: int | None = None) -> Schedule:
    """Chimera measured in its wave form (how the paper evaluates it).

    Structurally this is a one-wave snake pipeline: ``S = 2P`` stages on
    ``P`` devices; the model replicas of the original Chimera are
    accounted as extra data parallelism by the caller.
    """
    if config.scheme != "chimera-wave":
        raise ConfigError(
            f"chimera_wave_schedule got scheme {config.scheme!r}"
        )
    placement = SnakePlacement(config.num_devices, 1)
    sched = Schedule.empty("chimera-wave", config, placement)
    cap = 2 * config.num_devices if open_cap is None else open_cap
    policy = GreedyPolicy(priority=wave_priority, open_cap=lambda d: cap,
                          cap_mode="chunks")
    return greedy_order(sched, policy)


def chimera_to_wave(chimera: Schedule) -> tuple[Schedule, Schedule]:
    """Apply the literal block-swap of Fig. 5 to a Chimera schedule.

    Returns the two resulting one-wave pipelines, each on ``P/2``
    devices with ``B/2`` micro-batches (relabeled ``0..B/2-1``).  The
    per-device op *order* is inherited from the Chimera schedule — this
    is a rearrangement, not a rescheduling.
    """
    cfg = chimera.config
    if cfg.scheme != "chimera":
        raise ConfigError("chimera_to_wave needs a chimera schedule")
    p, b = cfg.num_devices, cfg.num_microbatches
    if p % 2:
        raise ConfigError("transform needs an even device count")
    half_p, half_b = p // 2, b // 2

    wave_cfg = PipelineConfig(
        scheme="chimera-wave",
        num_devices=half_p,
        num_microbatches=half_b,
        data_parallel=cfg.data_parallel * 2,
        microbatch_size=cfg.microbatch_size,
    )

    def build(group: int) -> Schedule:
        placement = SnakePlacement(half_p, 1)
        # Step 1 — the literal swap: collect each new device's ops with
        # the position they inherit from the Chimera program.
        position: dict[tuple, int] = {}
        for new_d in range(half_p):
            # Group 0 keeps the lower device half and the down replica;
            # group 1 is its mirror image on the upper half.
            src_d = new_d if group == 0 else p - 1 - new_d
            keep_replica = 0 if group == 0 else 1
            for idx, op in enumerate(chimera.device_ops[src_d]):
                if op.replica == keep_replica:
                    mb = op.microbatch - (0 if group == 0 else half_b)
                else:
                    # The symmetric-position swap: a foreign-replica op
                    # (m, s) is replaced by the kept replica's op of the
                    # partner micro-batch at the same stage index.
                    mb = (op.microbatch - half_b if group == 0
                          else op.microbatch)
                position[(op.kind, mb, op.stage)] = idx
        # Step 2 — re-derive a legal order with the inherited positions
        # as priority.  The paper's hand schedule is mirror-symmetric in
        # time, so the swap alone preserves order; greedy-generated
        # Chimera breaks ties asymmetrically, and this repair keeps the
        # inherited order wherever the wave dependencies allow it.
        sched = Schedule.empty(f"chimera-wave-g{group}", wave_cfg, placement)
        policy = GreedyPolicy(
            priority=lambda op: (position[(op.kind, op.microbatch, op.stage)],),
            open_cap=None,
        )
        return greedy_order(sched, policy)

    return build(0), build(1)
