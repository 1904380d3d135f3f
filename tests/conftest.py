"""Shared fixtures and parametrization helpers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import CostConfig, PipelineConfig

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


def assert_plans_equal(plan, oracle) -> None:
    """``plan`` (from :meth:`Reorderer.plan`) is ``oracle`` (``lower``
    of the reordered ``Program``) on every dataclass field, both
    content keys and — through the lazy mapping — the action lists."""
    for f in dataclasses.fields(oracle):
        if f.name not in ("program", "_plan_key", "_congruence_key"):
            assert getattr(plan, f.name) == getattr(oracle, f.name), f.name
    assert plan.program is not oracle.program
    for f in dataclasses.fields(oracle.program):
        if f.name != "actions":
            assert (getattr(plan.program, f.name)
                    == getattr(oracle.program, f.name)), f.name
    assert plan.plan_key == oracle.plan_key
    assert plan.congruence_key == oracle.congruence_key
    assert plan.program.actions == oracle.program.actions
    assert list(plan.program.actions) == list(oracle.program.actions)
    assert plan.decode() == oracle.decode()


@pytest.fixture
def unit_costs() -> CostConfig:
    return CostConfig(t_f=1.0, t_b=2.0, t_c=0.0)


@pytest.fixture
def comm_costs() -> CostConfig:
    return CostConfig(t_f=1.0, t_b=2.0, t_c=0.25)
