"""Shared parametrization helpers."""

from __future__ import annotations

from repro.config import PipelineConfig

#: (scheme, extra kwargs) pairs covering every generator, used by the
#: cross-scheme structural tests.
ALL_SCHEMES = [
    ("gpipe", {}),
    ("dapple", {}),
    ("interleaved", {"num_waves": 2}),
    ("gems", {}),
    ("chimera", {}),
    ("chimera-wave", {}),
    ("hanayo", {"num_waves": 1}),
    ("hanayo", {"num_waves": 2}),
    ("async-1f1b", {}),
]

SYNC_SCHEMES = [s for s in ALL_SCHEMES if s[0] != "async-1f1b"]


def scheme_id(param) -> str:
    scheme, kw = param
    if "num_waves" in kw:
        return f"{scheme}-w{kw['num_waves']}"
    return scheme


def make_config(scheme: str, p: int = 4, b: int = 4, **kw) -> PipelineConfig:
    return PipelineConfig(
        scheme=scheme, num_devices=p, num_microbatches=b, **kw
    )
