"""Legality of an arbitrary ordering, as structured violations.

:func:`check_ordering` validates a :class:`ScheduleOrdering` against
the base program's facts and returns a list of :class:`Violation`\\ s —
never a bare bool — so the searcher can skip illegal candidates cheaply
and the tests can assert *which* rule broke.

The checks mirror the event core's blocking semantics exactly, which is
what the differential fuzz harness pins:

* **Structural** (``missing-op`` / ``extra-op`` / ``device-set``): each
  device's entries must be a permutation of the program's own — the
  work set and placement are not the search's degrees of freedom.
* **Deadlock** (``dep-inversion`` / ``cross-device-cycle``): in the
  event core a compute blocks on its local producers having retired and
  its remote producers' sends being posted; sends post the instant the
  producing compute retires and collectives never block.  Hence a
  rebuilt program deadlocks *iff* the graph of per-device entry order
  plus dataflow edges has a cycle.  Same-device inversions are reported
  individually; genuine cross-device cycles come with a concrete
  ``a -> b -> ... -> a`` witness (shared
  :func:`~repro.schedules.validation.residual_cycle` machinery).  An
  acyclic graph's topological order is what the searcher times
  (:attr:`LegalityChecker.order`, :mod:`repro.synthesis.timing`).
* **Memory** (``capacity``): per device, activation deltas apply in
  program order — alloc at forward start, free at backward end, checked
  against capacity after each alloc — so a sequential walk reproduces
  the event core's OOM verdict without simulating a single event.  The
  ordering's recompute frontier is honored.
* **Semantic** (``collective-order``): a gradient-sync collective must
  sit after every backward of its ``(stage, replica)`` on its device —
  earlier placements *run* fine in simulation (collectives never
  block) but would reduce unfinished gradients, so they are illegal
  without being deadlocks.  :data:`DEADLOCK_KINDS` / :data:`OOM_KINDS`
  classify kinds for callers pinning verdicts against replays.

:class:`LegalityChecker` is the search-rate form: it precomputes every
program-side fact (entry multisets, interned dependency edges, per-rule
indices) once, so the per-candidate cost is a few linear passes over
the ordering itself plus one Kahn pass.  :func:`check_ordering`
builds a throwaway checker — same verdicts, one-shot convenience.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..actions.ops import CollectiveKind, CollectiveOp
from ..actions.program import ComputeKey, Program
from ..actions.reorder import OrderEntry, ordering_entries
from ..errors import SchedulingError
from ..schedules.validation import residual_cycle
from ..types import OpKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ordering import ScheduleOrdering

#: Violation kinds that make the rebuilt program deadlock in replay.
DEADLOCK_KINDS = frozenset({"dep-inversion", "cross-device-cycle"})
#: Violation kinds that make a capacity-armed replay raise OOM.
OOM_KINDS = frozenset({"capacity"})


@dataclass(frozen=True)
class Violation:
    """One broken legality rule.

    ``kind`` is a stable machine-readable string (see module doc);
    ``device`` the device the rule broke on (``-1`` for program-wide
    problems such as a wrong device set); ``subject`` holds the compute
    keys (or entries) involved, for tests and tooling that need more
    than prose.
    """

    kind: str
    device: int
    message: str
    subject: tuple = ()

    def __str__(self) -> str:
        where = f"d{self.device}" if self.device >= 0 else "program"
        return f"[{self.kind}@{where}] {self.message}"


def _fmt(key: ComputeKey) -> str:
    return f"{key[0].value}(m{key[1]},s{key[2]})"


def _fmt_entry(entry: OrderEntry) -> str:
    return str(entry) if isinstance(entry, CollectiveOp) else _fmt(entry)


class LegalityChecker:
    """Reusable checker over one program's (immutable) dataflow facts.

    Construction pays the program-side extraction once; :meth:`check`
    then validates any number of candidate orderings.  ``structural``
    may be turned off per call when the caller guarantees the ordering
    is a per-device permutation of the program's entries — true for
    every mutation-produced candidate, whose operators only ever *move*
    entries — which skips the multiset comparison entirely.
    """

    def __init__(self, program: Program,
                 capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and not program.tracks_memory:
            raise SchedulingError(
                f"{program.name}: capacity enforcement needs a "
                "resource-annotated program (compile with resources=...)"
            )
        self.program = program
        self.capacity_bytes = capacity_bytes
        self.base_entries = ordering_entries(program)
        self._counters = {
            device: Counter(entries)
            for device, entries in self.base_entries.items()
        }
        # Interned compute keys (``program.ops`` order, which is also
        # the lowered plan's compute order): Kahn runs over ints.
        self._index: dict[ComputeKey, int] = {
            key: i for i, key in enumerate(program.ops)
        }
        self._keys: tuple[ComputeKey, ...] = tuple(program.ops)
        idx = self._index
        n = len(self._keys)
        #: dataflow edges as producer -> consumers adjacency, in-degrees
        self._dep_out: list[list[int]] = [[] for _ in range(n)]
        self._dep_indeg = [0] * n
        #: per device, the local (producer, consumer) index pairs whose
        #: relative order the ordering must preserve
        self._local_pairs: dict[int, list[tuple[int, int]]] = {
            device: [] for device in self.base_entries
        }
        for key, deps in program.deps.items():
            ci = idx[key]
            for dep in deps:
                pi = idx[dep.producer]
                self._dep_out[pi].append(ci)
                self._dep_indeg[ci] += 1
                if dep.tag is None:
                    device = program.ops[key].device
                    self._local_pairs[device].append((pi, ci))
        #: compute indices in a topological order of the last
        #: :meth:`check`'s wait graph; ``None`` when that check stopped
        #: before or at the deadlock rule
        self.order: list[int] | None = None
        #: per device, per grad-sync (stage, replica): how many matching
        #: backwards the collective must trail
        self._sync_totals: dict[int, dict[tuple[int, int], int]] = {}
        for device, entries in self.base_entries.items():
            sites = {
                (e.stage, e.replica)
                for e in entries
                if isinstance(e, CollectiveOp)
                and e.kind is CollectiveKind.GRAD_SYNC
            }
            if not sites:
                continue
            totals = dict.fromkeys(sites, 0)
            for e in entries:
                if isinstance(e, CollectiveOp):
                    continue
                if e[0] is OpKind.BACKWARD:
                    site = (e[2], program.ops[e].replica)
                    if site in totals:
                        totals[site] += 1
            self._sync_totals[device] = totals

    # -- entry point ------------------------------------------------------

    def check(self, ordering: "ScheduleOrdering",
              structural: bool = True) -> list[Violation]:
        """Every rule ``ordering`` breaks, in severity order
        (structural, then deadlock, then memory, then semantic).

        An empty list means
        :func:`repro.actions.reorder.reorder_program` will produce a
        program that replays to completion (and, when the checker
        carries a capacity, within it).  Structural violations suppress
        the downstream checks — positions are meaningless when the work
        set is wrong.  A check that passes the deadlock rule leaves that
        rule's topological order in :attr:`order`, for the scorer.
        """
        program = self.program
        self.order = None
        frontier = ordering.recompute_frontier
        if frontier is not None and program.resources is None:
            raise SchedulingError(
                f"{program.name}: a recompute frontier needs a "
                "resource-annotated program (compile with resources=...)"
            )
        if structural:
            violations = self._check_structure(ordering)
            if violations:
                return violations
        else:
            violations = []
        violations.extend(self._check_dependencies(ordering))
        if program.tracks_memory:
            violations.extend(self._check_capacity(ordering))
        violations.extend(self._check_collectives(ordering))
        return violations

    # -- structural -------------------------------------------------------

    def _check_structure(self,
                         ordering: "ScheduleOrdering") -> list[Violation]:
        out: list[Violation] = []
        entries_of = dict(ordering.device_entries)
        have = set(entries_of)
        want = set(self.base_entries)
        if have != want:
            out.append(Violation(
                kind="device-set", device=-1,
                message=(f"ordering covers devices {sorted(have)}, "
                         f"program has {sorted(want)}"),
            ))
            return out
        for device, base_counts in self._counters.items():
            theirs = Counter(entries_of[device])
            if theirs == base_counts:
                continue
            missing = sorted(map(_fmt_entry,
                                 (base_counts - theirs).elements()))
            extra = sorted(map(_fmt_entry,
                               (theirs - base_counts).elements()))
            if missing:
                out.append(Violation(
                    kind="missing-op", device=device,
                    message=f"entries absent from ordering: {missing[:3]}",
                    subject=tuple(missing),
                ))
            if extra:
                out.append(Violation(
                    kind="extra-op", device=device,
                    message=f"entries foreign to this device: {extra[:3]}",
                    subject=tuple(extra),
                ))
        return out

    # -- deadlock ---------------------------------------------------------

    def _check_dependencies(
        self, ordering: "ScheduleOrdering",
    ) -> list[Violation]:
        """One walk of the ordering builds the wait graph (per-device
        entry order + dataflow edges); same-device inversions are read
        off its positions, and a Kahn pass over it yields either a
        cross-device cycle witness or the topological order
        (:attr:`order`)."""
        index = self._index
        n = len(self._keys)
        pos = [0] * n
        nxt = [-1] * n          # the order edge leaving each compute
        indeg = self._dep_indeg.copy()
        for _, entries in ordering.device_entries:
            prev = -1
            for k, entry in enumerate(entries):
                if isinstance(entry, CollectiveOp):
                    continue  # never blocks; irrelevant to deadlock
                cur = index[entry]
                pos[cur] = k
                if prev >= 0:
                    nxt[prev] = cur
                    indeg[cur] += 1
                prev = cur

        out: list[Violation] = []
        keys = self._keys
        for device, _ in ordering.device_entries:
            for pi, ci in self._local_pairs.get(device, ()):
                if pos[pi] > pos[ci]:
                    out.append(Violation(
                        kind="dep-inversion", device=device,
                        message=(f"{_fmt(keys[ci])} placed before its "
                                 f"local producer {_fmt(keys[pi])}"),
                        subject=(keys[pi], keys[ci]),
                    ))
        if out:
            # Local inversions already are cycles (order edge one way,
            # dep edge the other); the global pass would re-report them.
            return out

        dep_out = self._dep_out
        order = [i for i in range(n) if not indeg[i]]
        for i in order:  # the list grows while it is walked: a queue
            for j in dep_out[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
            j = nxt[i]
            if j >= 0:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) == n:
            self.order = order
            return out
        # Rare path: rebuild in key space for a readable witness.
        key_out: dict[ComputeKey, list[ComputeKey]] = {k: [] for k in keys}
        for i, consumers in enumerate(dep_out):
            key_out[keys[i]] += (keys[j] for j in consumers)
            if nxt[i] >= 0:
                key_out[keys[i]].append(keys[nxt[i]])
        cycle = residual_cycle(key_out, dict(zip(keys, indeg)))
        path = " -> ".join(_fmt(k) for k in cycle)
        out.append(Violation(
            kind="cross-device-cycle",
            device=self.program.ops[cycle[0]].device,
            message=(f"order and dataflow edges form a wait cycle: "
                     f"{path} -> {_fmt(cycle[0])}"),
            subject=tuple(cycle),
        ))
        return out

    # -- memory -----------------------------------------------------------

    def _check_capacity(
        self, ordering: "ScheduleOrdering",
    ) -> list[Violation]:
        """The event core's per-device watermark walk, without events.

        Per device the deltas apply in program order — alloc at forward
        start, free at backward end, the capacity check firing after
        each alloc — so execution timing never changes a device's peak
        and this sequential walk is *exact*, not a bound.
        """
        program = self.program
        capacity_bytes = self.capacity_bytes
        resources = program.resources
        assert resources is not None
        frontier = ordering.recompute_frontier
        if frontier is not None:
            resources = resources.with_recompute_from(frontier)
        activation = resources.activation_bytes
        out: list[Violation] = []
        if capacity_bytes is None:
            return out
        for device, entries in ordering.device_entries:
            level = program.static_bytes.get(device, 0.0)
            if level > capacity_bytes:
                out.append(Violation(
                    kind="capacity", device=device,
                    message=(f"static residency {level:.0f} bytes alone "
                             f"exceeds capacity {capacity_bytes}"),
                ))
                continue
            for entry in entries:
                if isinstance(entry, CollectiveOp):
                    continue
                if entry[0] is OpKind.FORWARD:
                    level += activation[entry[2]]
                    if level > capacity_bytes:
                        out.append(Violation(
                            kind="capacity", device=device,
                            message=(f"allocating {_fmt(entry)} lifts "
                                     f"the watermark to {level:.0f} "
                                     f"bytes, over capacity "
                                     f"{capacity_bytes}"),
                            subject=(entry,),
                        ))
                        break
                else:
                    level -= activation[entry[2]]
        return out

    # -- collectives ------------------------------------------------------

    def _check_collectives(
        self, ordering: "ScheduleOrdering",
    ) -> list[Violation]:
        program = self.program
        out: list[Violation] = []
        if not self._sync_totals:
            return out
        entries_of = dict(ordering.device_entries)
        for device, totals in self._sync_totals.items():
            entries = entries_of[device]
            seen = dict.fromkeys(totals, 0)
            for i, entry in enumerate(entries):
                if not isinstance(entry, CollectiveOp):
                    if entry[0] is OpKind.BACKWARD:
                        site = (entry[2], program.ops[entry].replica)
                        if site in seen:
                            seen[site] += 1
                    continue
                if entry.kind is not CollectiveKind.GRAD_SYNC:
                    continue
                site = (entry.stage, entry.replica)
                if seen.get(site, 0) >= totals.get(site, 0):
                    continue
                late = [
                    other for other in entries[i + 1:]
                    if not isinstance(other, CollectiveOp)
                    and other[0] is OpKind.BACKWARD
                    and other[2] == entry.stage
                    and program.ops[other].replica == entry.replica
                ]
                out.append(Violation(
                    kind="collective-order", device=device,
                    message=(f"{entry} posted before "
                             f"{_fmt_entry(late[0])} finalizes its "
                             "gradient"),
                    subject=(entry, *late),
                ))
        return out


def check_ordering(
    program: Program,
    ordering: "ScheduleOrdering",
    capacity_bytes: int | None = None,
) -> list[Violation]:
    """One-shot form of :meth:`LegalityChecker.check`."""
    return LegalityChecker(program, capacity_bytes).check(ordering)


def is_legal(
    program: Program,
    ordering: "ScheduleOrdering",
    capacity_bytes: int | None = None,
) -> bool:
    """Convenience predicate over :func:`check_ordering`."""
    return not check_ordering(program, ordering, capacity_bytes)
