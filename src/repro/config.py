"""Configuration objects shared across the library.

A :class:`PipelineConfig` fully determines a schedule's *shape*: how
many workers participate in one pipeline (``P``), how many micro-batches
an iteration is split into (``B``), how many waves a wave-like schedule
folds the model into (``W``), and how many data-parallel pipeline
replicas run side by side (``D``).  Symbols follow Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

#: Schemes with closed-form or greedy generators in :mod:`repro.schedules`.
KNOWN_SCHEMES = (
    "gpipe",
    "dapple",          # 1F1B
    "interleaved",     # Megatron interleaved 1F1B
    "gems",
    "chimera",         # bidirectional, 2 model replicas
    "chimera-wave",    # Chimera after the wave transform of Sec. 3.2
    "hanayo",
    "async-1f1b",      # PipeDream-style, no flush
)

#: The paper's four evaluation clusters (:func:`repro.cluster.get_cluster`).
KNOWN_CLUSTERS = ("PC", "FC", "TACC", "TC")


@dataclass(frozen=True)
class PipelineConfig:
    """Shape of one training iteration under pipeline parallelism.

    Attributes
    ----------
    scheme:
        One of :data:`KNOWN_SCHEMES`.
    num_devices:
        ``P`` — workers in one pipeline.
    num_microbatches:
        ``B`` — micro-batches per iteration (per pipeline replica).
    num_waves:
        ``W`` — waves for wave-like schemes (``S = 2*W*P`` stages).
        Ignored (forced to the scheme's natural value) otherwise.
    data_parallel:
        ``D`` — replicated pipelines doing standard data parallelism.
    microbatch_size:
        Sequences per micro-batch (used by cost and memory models).
    """

    scheme: str
    num_devices: int
    num_microbatches: int
    num_waves: int = 1
    data_parallel: int = 1
    microbatch_size: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in KNOWN_SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {KNOWN_SCHEMES}"
            )
        for name in ("num_devices", "num_microbatches", "num_waves",
                     "data_parallel", "microbatch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if self.scheme in ("chimera", "chimera-wave", "gems"):
            if self.num_microbatches % 2:
                raise ConfigError(
                    f"{self.scheme} splits micro-batches across two directions; "
                    f"B must be even, got {self.num_microbatches}"
                )
        if self.scheme == "chimera" and self.num_devices % 2:
            raise ConfigError("chimera requires an even number of devices")

    # -- derived shape ---------------------------------------------------

    @property
    def waves(self) -> int:
        """Effective wave count.

        Classic single-direction schemes are "half a wave" in the
        paper's terms; we expose their stage count directly instead.
        """
        if self.scheme == "hanayo":
            return self.num_waves
        if self.scheme == "chimera-wave":
            return 1
        return 1

    @property
    def num_stages(self) -> int:
        """``S`` — total pipeline stages."""
        if self.scheme == "hanayo":
            return 2 * self.num_waves * self.num_devices
        if self.scheme == "chimera-wave":
            return 2 * self.num_devices
        if self.scheme == "interleaved":
            return self.num_waves * self.num_devices
        # gpipe / dapple / chimera / gems / async: one stage per device
        return self.num_devices

    @property
    def chunks_per_device(self) -> int:
        """Model chunks each device owns (the paper's local module count)."""
        if self.scheme == "chimera":
            return 2  # two replicas, one stage of each
        return self.num_stages // self.num_devices

    @property
    def total_devices(self) -> int:
        """Devices used by the full job: pipeline × data parallel."""
        return self.num_devices * self.data_parallel

    @property
    def total_batch(self) -> int:
        """Sequences consumed per iteration by the full job."""
        return self.num_microbatches * self.microbatch_size * self.data_parallel

    def with_scheme(self, scheme: str, **kwargs) -> "PipelineConfig":
        return replace(self, scheme=scheme, **kwargs)

    def describe(self) -> str:
        core = (f"{self.scheme}(P={self.num_devices}, B={self.num_microbatches}, "
                f"D={self.data_parallel}")
        if self.scheme in ("hanayo", "interleaved"):
            core += f", W={self.num_waves}"
        return core + ")"


@dataclass(frozen=True)
class CostConfig:
    """Abstract per-stage time costs (Table 1 symbols).

    ``t_f``/``t_b`` are the forward/backward time of *one device's worth
    of layers* (the paper's ``T_F``/``T_B``); per-stage chunk costs are
    obtained by dividing by the device's chunk count.  ``t_c`` is one
    P2P transfer.  Units are arbitrary but must be consistent.
    """

    t_f: float = 1.0
    t_b: float = 2.0
    t_c: float = 0.0

    def __post_init__(self) -> None:
        if self.t_f <= 0 or self.t_b <= 0 or self.t_c < 0:
            raise ConfigError(f"invalid costs: {self}")

    def scaled(self, factor: float) -> "CostConfig":
        return CostConfig(self.t_f * factor, self.t_b * factor, self.t_c * factor)


@dataclass(frozen=True)
class RunConfig:
    """Options controlling simulation fidelity.

    ``contention`` serializes transfers sharing a device pair on one
    wire (NCCL-style); off by default so abstract-cost experiments keep
    the paper's uncontended ``T_C`` model.
    """

    prefetch: bool = True           # overlap recv with previous compute
    batch_cross_comm: bool = True   # batch opposing sends at wave turns
    track_memory: bool = True
    contention: bool = False        # one wire per device pair
    iterations: int = 1             # pipeline iterations to simulate

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
