"""The concrete model configurations used in the paper's evaluation.

Section 5: "The BERT-style model consists of 64 layers, 64 attention
heads, and a hidden size of 2560, while the GPT-style model has 128
layers, 16 attention heads, and a hidden size of 1024."
"""

from __future__ import annotations

from .spec import ModelSpec


def bert_64() -> ModelSpec:
    """The paper's BERT-style evaluation model (~5 B parameters)."""
    return ModelSpec(
        name="bert-64L",
        hidden=2560,
        num_layers=64,
        heads=64,
        seq_len=512,
    )


def gpt_128() -> ModelSpec:
    """The paper's GPT-style evaluation model (~1.6 B parameters)."""
    return ModelSpec(
        name="gpt-128L",
        hidden=1024,
        num_layers=128,
        heads=16,
        seq_len=1024,
    )


def tiny_model(num_layers: int = 8, hidden: int = 32, heads: int = 4,
               seq_len: int = 8, vocab: int = 64) -> ModelSpec:
    """A model small enough for real NumPy execution in tests/examples."""
    return ModelSpec(
        name=f"tiny-{num_layers}L",
        hidden=hidden,
        num_layers=num_layers,
        heads=heads,
        seq_len=seq_len,
        vocab=vocab,
        bytes_per_el=8,  # engine trains in float64 for exact equivalence
    )


#: the evaluation models by the name the CLI and advisor queries use
MODELS = {"bert": bert_64, "gpt": gpt_128, "tiny": tiny_model}
