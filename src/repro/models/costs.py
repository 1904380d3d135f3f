"""Cost models: map a model spec + device to per-stage time and bytes.

The discrete-event simulator never sees FLOPs; it sees a
:class:`StageCosts` — forward/backward seconds for each pipeline stage
plus the bytes of the boundary tensors.  This module performs that
lowering, including the stage partitioning of the layer stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..errors import ConfigError
from .spec import LayerSpec, ModelSpec

#: Back-of-envelope backward/forward FLOP ratio used throughout the
#: paper's figures ("Back propagation is illustrated twice as long as
#: forward propagation according to the training experience").
BACKWARD_RATIO = 2.0


def partition_layers(spec: ModelSpec, num_stages: int) -> list[list[LayerSpec]]:
    """Split the layer stack into ``num_stages`` cost-balanced stages.

    Greedy prefix partitioning against the forward-FLOP cost model; each
    stage is a contiguous run of layers (pipeline parallelism requires
    contiguity).  Raises if there are fewer layers than stages.
    """
    layers = spec.layers
    _check_stages(spec, num_stages)
    costs = [l.flops_per_token() for l in layers]
    total = sum(costs)
    target = total / num_stages
    stages: list[list[LayerSpec]] = []
    acc: list[LayerSpec] = []
    acc_cost = 0.0
    remaining = num_stages
    for i, layer in enumerate(layers):
        acc.append(layer)
        acc_cost += costs[i]
        layers_left = len(layers) - i - 1
        # Close the stage when we've met the target, but never leave
        # fewer layers than stages still to fill.
        if remaining > 1 and (acc_cost >= target or layers_left == remaining - 1):
            stages.append(acc)
            acc, acc_cost = [], 0.0
            remaining -= 1
    stages.append(acc)
    assert len(stages) == num_stages
    assert sum(len(s) for s in stages) == len(layers)
    return stages


def _check_stages(spec: ModelSpec, num_stages: int) -> None:
    """Raise unless ``spec``'s layers split into ``num_stages`` stages."""
    if num_stages < 1:
        raise ConfigError(f"num_stages must be >= 1, got {num_stages}")
    n_layers = spec.num_layers + 2     # embedding + body + head
    if n_layers < num_stages:
        raise ConfigError(
            f"{spec.name}: cannot split {n_layers} layers into "
            f"{num_stages} stages"
        )


@functools.lru_cache(maxsize=256)
def _layer_totals(spec: ModelSpec) -> tuple[float, int, float]:
    """Whole-model forward FLOPs per token, parameter count and saved
    activation bytes per token — each summed over ``spec.layers`` in
    layer order, once per model."""
    layers = spec.layers
    return (sum(l.flops_per_token() for l in layers),
            sum(l.param_count for l in layers),
            sum(l.activation_bytes_per_token(spec.bytes_per_el)
                for l in layers))


@dataclass(frozen=True)
class DeviceModel:
    """Compute characteristics of one accelerator."""

    name: str
    peak_flops: float          # FLOP/s at training precision
    mfu: float                 # achieved model FLOPs utilisation
    memory_bytes: int

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.mfu


# GPUs used in the paper's four clusters.  Peaks are fp32: the paper's
# measured sequences/second (0.8-1.8 on 8 GPUs for the 5B BERT) imply
# full-precision training — fp16 peaks would overshoot by ~15x.
A100_80G = DeviceModel("A100-80G", 19.5e12, 0.50, 80 * 2**30)
A100_40G = DeviceModel("A100-40G", 19.5e12, 0.50, 40 * 2**30)
V100_32G = DeviceModel("V100-32G", 15.7e12, 0.50, 32 * 2**30)


@dataclass(frozen=True)
class StageCosts:
    """Per-stage execution costs for a concrete (model, P, S, device) tuple.

    ``forward[s]`` / ``backward[s]`` are seconds for one micro-batch on
    stage ``s``; ``boundary_bytes`` is the activation tensor crossing
    each stage boundary (gradient tensors are the same size).
    """

    forward: tuple[float, ...]
    backward: tuple[float, ...]
    boundary_bytes: float
    weight_bytes: tuple[float, ...]
    activation_bytes: tuple[float, ...]

    @property
    def num_stages(self) -> int:
        return len(self.forward)


#: fp32 Adam: 4 B params + 4 B grads + 8 B optimizer moments.
BYTES_PER_PARAM = 16.0


@functools.lru_cache(maxsize=1024)
def stage_costs(
    spec: ModelSpec,
    num_stages: int,
    device: DeviceModel,
    microbatch_size: int = 1,
    balanced: bool = True,
    recompute: bool = False,
) -> StageCosts:
    """Lower a model spec to per-stage costs on a device.

    Memoized: every argument is a frozen (hashable) value and the
    result is immutable, so a sweep that crosses one model with many
    layouts and clusters lowers each distinct
    ``(model, stages, device, ...)`` tuple once.

    ``balanced=True`` (default) spreads total compute, weights and
    activations uniformly across stages — the idealisation the paper's
    ``T_F``/``T_B`` model assumes, and what a careful manual partition
    achieves when the layer count divides the stage count.  Pass
    ``balanced=False`` to use the greedy contiguous-layer partition and
    expose real imbalance (the ablation bench does).

    ``recompute=True`` models activation checkpointing (Chen et al.,
    cited in the paper's Sec. 6): stages retain only their boundary
    input, and the backward pass first re-runs the forward — so
    activation memory drops to one boundary tensor per live micro-batch
    while ``T_B`` grows from ``2 T_F`` to ``3 T_F``.
    """
    if microbatch_size < 1:
        raise ConfigError("microbatch_size must be >= 1")
    tokens = spec.seq_len * microbatch_size
    bwd_ratio = BACKWARD_RATIO + (1.0 if recompute else 0.0)
    if balanced:
        _check_stages(spec, num_stages)
        flops_per_token, param_count, act_per_token = _layer_totals(spec)
        seconds = tokens * flops_per_token / device.effective_flops \
            / num_stages
        params = param_count / num_stages
        act = tokens * act_per_token / num_stages
        if recompute:
            act = spec.boundary_bytes(microbatch_size)
        fwd = [seconds] * num_stages
        bwd = [seconds * bwd_ratio] * num_stages
        weights = [params * BYTES_PER_PARAM] * num_stages
        acts = [act] * num_stages
    else:
        fwd, bwd, weights, acts = [], [], [], []
        for stage in partition_layers(spec, num_stages):
            flops = tokens * sum(l.flops_per_token() for l in stage)
            seconds = flops / device.effective_flops
            fwd.append(seconds)
            bwd.append(seconds * bwd_ratio)
            weights.append(sum(l.param_count for l in stage) * BYTES_PER_PARAM)
            if recompute:
                acts.append(spec.boundary_bytes(microbatch_size))
            else:
                acts.append(tokens * sum(
                    l.activation_bytes_per_token(spec.bytes_per_el)
                    for l in stage
                ))
    return StageCosts(
        forward=tuple(fwd),
        backward=tuple(bwd),
        boundary_bytes=spec.boundary_bytes(microbatch_size),
        weight_bytes=tuple(weights),
        activation_bytes=tuple(acts),
    )
