"""Transformer model specifications.

A :class:`ModelSpec` describes the architecture the paper trains
(BERT-style and GPT-style stacks) at the granularity the pipeline cares
about: a list of layer descriptors with parameter counts, FLOPs and
activation footprints.  The NumPy engine instantiates real (smaller)
models from the same spec type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigError


class LayerKind(enum.Enum):
    EMBEDDING = "embedding"
    TRANSFORMER = "transformer"
    HEAD = "head"           # final projection / LM head


@dataclass(frozen=True)
class LayerSpec:
    """One pipeline-partitionable layer."""

    kind: LayerKind
    hidden: int
    heads: int = 1
    ffn_mult: int = 4
    vocab: int = 0          # embedding / head layers only

    @property
    def param_count(self) -> int:
        h = self.hidden
        if self.kind is LayerKind.TRANSFORMER:
            # qkv + out proj: 4h^2; ffn: 2 * ffn_mult * h^2; 2 layernorms.
            return 4 * h * h + 2 * self.ffn_mult * h * h + 4 * h + (4 + self.ffn_mult) * h
        if self.kind in (LayerKind.EMBEDDING, LayerKind.HEAD):
            return self.vocab * h
        raise AssertionError(self.kind)

    def flops_per_token(self) -> float:
        """Forward FLOPs per token (matmul-dominated estimate)."""
        h = self.hidden
        if self.kind is LayerKind.TRANSFORMER:
            return 2.0 * (4 * h * h + 2 * self.ffn_mult * h * h)
        if self.kind in (LayerKind.EMBEDDING, LayerKind.HEAD):
            # lookup is cheap; head matmul is 2*v*h but we fold it into
            # the same estimate used for partitioning balance.
            return 2.0 * self.vocab * h if self.kind is LayerKind.HEAD else 0.0
        raise AssertionError(self.kind)

    def activation_bytes_per_token(self, bytes_per_el: int = 2) -> float:
        """Bytes of saved activations per token needed for backward.

        A standard transformer block retains roughly 17 hidden-sized
        intermediate tensors per token without recomputation (the
        Megatron estimate), scaled by the element size.
        """
        h = self.hidden
        if self.kind is LayerKind.TRANSFORMER:
            return 17.0 * h * bytes_per_el
        return 1.0 * h * bytes_per_el


@dataclass(frozen=True)
class ModelSpec:
    """A full model: named architecture plus its layer stack."""

    name: str
    hidden: int
    num_layers: int
    heads: int
    seq_len: int
    vocab: int = 50304
    ffn_mult: int = 4
    bytes_per_el: int = 4   # fp32 training (see models.costs presets)

    def __post_init__(self) -> None:
        if self.num_layers < 1 or self.hidden < 1 or self.seq_len < 1:
            raise ConfigError(f"degenerate model spec: {self}")
        if self.hidden % self.heads:
            raise ConfigError(
                f"hidden {self.hidden} not divisible by heads {self.heads}"
            )

    @property
    def layers(self) -> list[LayerSpec]:
        body = [
            LayerSpec(LayerKind.TRANSFORMER, self.hidden, self.heads, self.ffn_mult)
            for _ in range(self.num_layers)
        ]
        emb = LayerSpec(LayerKind.EMBEDDING, self.hidden, vocab=self.vocab)
        head = LayerSpec(LayerKind.HEAD, self.hidden, vocab=self.vocab)
        return [emb, *body, head]

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    def flops_per_seq_forward(self) -> float:
        return self.seq_len * sum(l.flops_per_token() for l in self.layers)

    def boundary_bytes(self, microbatch_size: int) -> float:
        """Bytes of one activation tensor crossing a stage boundary."""
        return microbatch_size * self.seq_len * self.hidden * self.bytes_per_el

    def describe(self) -> str:
        return (f"{self.name}: {self.num_layers}L h={self.hidden} "
                f"heads={self.heads} seq={self.seq_len} "
                f"params={self.param_count / 1e9:.2f}B")
