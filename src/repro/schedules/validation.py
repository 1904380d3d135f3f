"""Structural validation of schedules.

Invariants (DESIGN.md §5):

1. **Completeness** — every (micro-batch, stage) appears exactly once as
   a forward and once as a backward.
2. **Placement consistency** — every op sits on the device its
   placement dictates, with the right chunk index.
3. **Executability** — the union of per-device program order and the
   dataflow dependency edges is acyclic, i.e. some timing exists under
   which the schedule runs to completion without reordering.
"""

from __future__ import annotations

from collections import deque

from ..errors import ValidationError
from ..types import OpKind
from .base import Schedule


def check_completeness(schedule: Schedule) -> None:
    seen: dict[tuple, int] = {}
    for op in schedule.all_ops():
        key = (op.kind, op.microbatch, op.stage)
        seen[key] = seen.get(key, 0) + 1
    expected = schedule.expected_ops()
    missing = expected - set(seen)
    extra = set(seen) - expected
    dupes = {k for k, n in seen.items() if n > 1}
    problems = []
    if missing:
        problems.append(f"missing {len(missing)} ops, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"unexpected ops {sorted(extra)[:3]}")
    if dupes:
        problems.append(f"duplicated ops {sorted(dupes)[:3]}")
    if problems:
        raise ValidationError(f"{schedule.name}: " + "; ".join(problems))


def check_placement(schedule: Schedule) -> None:
    for device, ops in schedule.device_ops.items():
        for op in ops:
            want = schedule.placement.device_of(op.stage, op.replica)
            if op.device != device or want != device:
                raise ValidationError(
                    f"{schedule.name}: {op} listed on device {device}, "
                    f"placement says {want}"
                )
            want_chunk = schedule.placement.chunk_of(op.stage, op.replica)
            if op.chunk != want_chunk:
                raise ValidationError(
                    f"{schedule.name}: {op} has chunk {op.chunk}, "
                    f"placement says {want_chunk}"
                )


def residual_cycle(out: dict, indeg: dict) -> list:
    """One concrete cycle among the nodes Kahn's algorithm left behind.

    ``out`` is the adjacency map, ``indeg`` the post-Kahn in-degrees: a
    node with ``indeg > 0`` is unreachable, and the subgraph induced by
    those nodes always contains a cycle (every residual node keeps an
    unsatisfied predecessor).  Used by both the schedule executability
    check and the synthesis legality checker to turn "some ops are
    stuck" into a reportable ``a -> b -> ... -> a`` witness.
    """
    residual = {k for k, n in indeg.items() if n > 0}
    if not residual:
        return []
    rev: dict = {k: [] for k in residual}
    for a, nxts in out.items():
        if a in residual:
            for b in nxts:
                if b in residual:
                    rev[b].append(a)
    # Walk predecessors until a node repeats; the walk cannot dead-end
    # because every residual node has a residual predecessor.
    node = next(iter(sorted(residual, key=repr)))
    seen: dict = {}
    path = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(rev[node], key=repr)
    cycle = path[seen[node]:]
    cycle.reverse()  # predecessor walk found it backwards
    return cycle


def check_executable(schedule: Schedule) -> None:
    """Kahn's algorithm over program-order + dataflow edges."""
    ops = schedule.all_ops()
    key_of = {(op.kind, op.microbatch, op.stage): op for op in ops}
    indeg: dict[tuple, int] = {k: 0 for k in key_of}
    out: dict[tuple, list[tuple]] = {k: [] for k in key_of}

    def add_edge(a: tuple, b: tuple) -> None:
        out[a].append(b)
        indeg[b] += 1

    for device, dev_ops in schedule.device_ops.items():
        for prev, nxt in zip(dev_ops, dev_ops[1:]):
            add_edge((prev.kind, prev.microbatch, prev.stage),
                     (nxt.kind, nxt.microbatch, nxt.stage))
    for op in ops:
        for dep in schedule.dependencies(op):
            if dep not in key_of:
                raise ValidationError(
                    f"{schedule.name}: {op} depends on absent op {dep}"
                )
            add_edge(dep, (op.kind, op.microbatch, op.stage))

    queue = deque(k for k, n in indeg.items() if n == 0)
    visited = 0
    while queue:
        k = queue.popleft()
        visited += 1
        for nxt in out[k]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if visited != len(key_of):
        cycle = " -> ".join(
            f"{k[0].value}(m{k[1]},s{k[2]})"
            for k in residual_cycle(out, indeg)
        )
        raise ValidationError(
            f"{schedule.name}: cyclic order/dataflow constraints; "
            f"{len(key_of) - visited} ops unreachable; "
            f"witness cycle: {cycle}"
        )


def validate(schedule: Schedule) -> None:
    """Run all structural checks; raises ValidationError on the first failure."""
    check_completeness(schedule)
    check_placement(schedule)
    check_executable(schedule)
