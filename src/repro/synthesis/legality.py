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
  ``a -> b -> ... -> a`` witness.  An acyclic graph's topological
  order is what the searcher times (:attr:`LegalityChecker.order`,
  :mod:`repro.synthesis.timing`).  A full check finds it with one Kahn
  pass (and a cycle witness with the shared
  :func:`~repro.schedules.validation.residual_cycle` machinery); a
  mutated candidate instead *repairs* its parent's order
  (:class:`Walk`): only the order edges around each moved window are
  new, and they are inserted one at a time, Pearce–Kelly style, so a
  cycle is caught — with the path that closes it as its witness — the
  moment the edge closing it goes in.
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
the ordering plus the deadlock rule, whose repair touches only the
changed devices and the order between a new edge's ends.
:func:`check_ordering` builds a throwaway checker and runs the full
check — the reference every repair is fuzzed against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

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


class Walk(NamedTuple):
    """The deadlock rule's result for one ordering, reusable by its
    mutations.

    ``device_entries`` is the ordering's own and ``seqs`` each device's
    compute indices in that order (collectives dropped); ``nxt`` /
    ``prv`` are the order edges leaving / entering each compute
    (``-1`` at a device's ends); ``order`` is a topological order of
    the wait graph and ``rank`` its inverse.  Copy-on-write: a repair
    copies the arrays it changes and shares the rest, so a walk's
    arrays never change once built.
    """

    device_entries: tuple
    seqs: tuple[list[int], ...]
    nxt: list[int]
    prv: list[int]
    rank: list[int]
    order: list[int]


def _fmt(key: ComputeKey) -> str:
    return f"{key[0].value}(m{key[1]},s{key[2]})"


def _fmt_entry(entry: OrderEntry) -> str:
    return str(entry) if isinstance(entry, CollectiveOp) else _fmt(entry)


class LegalityChecker:
    """Reusable checker over one program's (immutable) dataflow facts.

    Construction pays the program-side extraction once; :meth:`check`
    then validates any number of candidate orderings.  ``structural``
    may be turned off per call when the caller guarantees the ordering
    is a per-device permutation of the program's entries, which skips
    the multiset comparison; ``parent=`` (see :meth:`check`) also
    skips rebuilding the wait graph.
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
        #: dataflow edges as producer -> consumers adjacency (and its
        #: reverse), in-degrees
        self._dep_out: list[list[int]] = [[] for _ in range(n)]
        self._dep_in: list[list[int]] = [[] for _ in range(n)]
        self._dep_indeg = [0] * n
        #: per device, the local (producer, consumer) index pairs whose
        #: relative order the ordering must preserve
        self._local_pairs: dict[int, list[tuple[int, int]]] = {
            device: [] for device in self.base_entries
        }
        #: per consumer, ``(index in its device's local pairs,
        #: producer)`` of each local pair
        self._local_in: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for key, deps in program.deps.items():
            ci = idx[key]
            for dep in deps:
                pi = idx[dep.producer]
                self._dep_out[pi].append(ci)
                self._dep_in[ci].append(pi)
                self._dep_indeg[ci] += 1
                if dep.tag is None:
                    pairs = self._local_pairs[program.ops[key].device]
                    self._local_in[ci].append((len(pairs), pi))
                    pairs.append((pi, ci))
        #: devices whose entries are all computes: interned by a plain
        #: lookup, with no per-entry collective test
        self._plain = {
            device: not any(isinstance(e, CollectiveOp) for e in entries)
            for device, entries in self.base_entries.items()
        }
        #: the last :meth:`check`'s :class:`Walk` and its topological
        #: order; ``None`` when that check stopped before or at the
        #: deadlock rule
        self.walk: Walk | None = None
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
              structural: bool = True,
              parent: Walk | None = None) -> list[Violation]:
        """Every rule ``ordering`` breaks, in severity order
        (structural, then deadlock, then memory, then semantic).

        An empty list means
        :func:`repro.actions.reorder.reorder_program` will produce a
        program that replays to completion (and, when the checker
        carries a capacity, within it).  Structural violations suppress
        the downstream checks — positions are meaningless when the work
        set is wrong.  A check that passes the deadlock rule leaves its
        :class:`Walk` in :attr:`walk` and that walk's topological order
        in :attr:`order`, for the scorer.

        ``parent`` is the :attr:`walk` of an ordering whose entries
        ``ordering`` only moves — true for every mutation-produced
        candidate, so it implies ``structural=False``: the deadlock
        rule then repairs it (:meth:`_repair_dependencies`), with the
        same verdict and, for a cycle, its own witness.
        """
        program = self.program
        self.walk = self.order = None
        frontier = ordering.recompute_frontier
        if frontier is not None and program.resources is None:
            raise SchedulingError(
                f"{program.name}: a recompute frontier needs a "
                "resource-annotated program (compile with resources=...)"
            )
        if parent is not None:
            violations = self._repair_dependencies(ordering, parent)
        else:
            if structural:
                violations = self._check_structure(ordering)
                if violations:
                    return violations
            violations = self._check_dependencies(ordering)
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
        (:attr:`walk`)."""
        n = len(self._keys)
        pos = [0] * n
        nxt = [-1] * n          # the order edge leaving each compute
        prv = [-1] * n          # ... and entering it
        indeg = self._dep_indeg.copy()
        seqs = tuple(self._intern(device, entries)
                     for device, entries in ordering.device_entries)
        for seq in seqs:
            for k, cur in enumerate(seq):
                pos[cur] = k
            for cur, following in zip(seq, seq[1:]):
                nxt[cur] = following
                prv[following] = cur
                indeg[following] += 1

        out: list[Violation] = []
        for device, _ in ordering.device_entries:
            for pi, ci in self._local_pairs.get(device, ()):
                if pos[pi] > pos[ci]:
                    out.append(self._inversion(device, pi, ci))
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
            rank = [0] * n
            for r, i in enumerate(order):
                rank[i] = r
            self._accept(Walk(ordering.device_entries, seqs, nxt, prv,
                              rank, order))
            return out
        # Rare path: rebuild in key space for a readable witness.
        keys = self._keys
        key_out: dict[ComputeKey, list[ComputeKey]] = {k: [] for k in keys}
        for i, consumers in enumerate(dep_out):
            key_out[keys[i]] += (keys[j] for j in consumers)
            if nxt[i] >= 0:
                key_out[keys[i]].append(keys[nxt[i]])
        cycle = residual_cycle(key_out, dict(zip(keys, indeg)))
        out.append(self._cycle(cycle))
        return out

    def _repair_dependencies(
        self, ordering: "ScheduleOrdering", parent: Walk,
    ) -> list[Violation]:
        """The deadlock rule for a mutation of ``parent``'s ordering.

        Per device, only the window ``[lo, hi]`` of its compute
        sequence that differs from the parent's moved, so a new
        inversion has both ends inside a window, and the only new wait
        edges are the order edges touching it.  Those are removed
        first, then inserted one at a time into the parent's order
        (:meth:`_insert_edge`) — exactly the verdicts of
        :meth:`_check_dependencies`.
        """
        if ordering.device_entries is parent.device_entries:
            self._accept(parent)  # a recompute-frontier move
            return []
        seqs = list(parent.seqs)
        windows = []
        for d, ((device, entries), (_, was)) in enumerate(
                zip(ordering.device_entries, parent.device_entries)):
            if entries is was or entries == was:
                continue
            old = seqs[d]
            seq = self._intern(device, entries)
            lo, m = 0, len(seq)
            while lo < m and seq[lo] == old[lo]:
                lo += 1
            if lo == m:
                continue  # only collectives moved
            hi = m - 1
            while seq[hi] == old[hi]:
                hi -= 1
            seqs[d] = seq
            windows.append((device, old, seq, lo, hi))
        if not windows:
            self._accept(Walk(ordering.device_entries, parent.seqs,
                              parent.nxt, parent.prv, parent.rank,
                              parent.order))
            return []

        out: list[Violation] = []
        local_in = self._local_in
        for device, _, seq, lo, hi in windows:
            at = {c: k for k, c in enumerate(seq[lo:hi + 1])}
            hits = sorted(
                (j, p, c) for c, k in at.items() for j, p in local_in[c]
                if at.get(p, -1) > k)
            out += (self._inversion(device, p, c) for _, p, c in hits)
        if out:
            return out

        nxt, prv = parent.nxt.copy(), parent.prv.copy()
        rank, order = parent.rank.copy(), parent.order.copy()
        added = []
        for _, old, seq, lo, hi in windows:
            # order edges k -> k + 1 for k in [lo - 1, hi]
            a, b = max(lo - 1, 0), hi + 2
            for u, v in zip(old[a:b], old[a + 1:b]):
                nxt[u] = prv[v] = -1
            added += zip(seq[a:b], seq[a + 1:b])
        for u, v in added:
            if rank[u] > rank[v]:
                cycle = self._insert_edge(u, v, nxt, prv, rank, order)
                if cycle:
                    keys = self._keys
                    out.append(self._cycle([keys[i] for i in cycle]))
                    return out
            nxt[u] = v
            prv[v] = u
        self._accept(Walk(ordering.device_entries, tuple(seqs), nxt, prv,
                          rank, order))
        return out

    def _insert_edge(self, u: int, v: int, nxt: list[int], prv: list[int],
                     rank: list[int], order: list[int]) -> list[int]:
        """Make ``order`` admit the edge ``u -> v`` (``rank[u] >
        rank[v]``), Pearce–Kelly: or return the path ``v -> ... -> u``
        that the edge closes into a cycle.

        Only nodes ranked between the two ends can move: those ``v``
        reaches go after those reaching ``u``, each set keeping its
        relative order, in the rank slots they held between them.
        """
        ru, rv = rank[u], rank[v]
        dep_out, dep_in = self._dep_out, self._dep_in
        came = {v: -1}
        stack = [v]
        while stack:
            x = stack.pop()
            j = nxt[x]
            for y in dep_out[x] if j < 0 else (*dep_out[x], j):
                if y == u:
                    path = [u, x]
                    while came[x] >= 0:
                        x = came[x]
                        path.append(x)
                    return path[::-1]
                if rank[y] < ru and y not in came:
                    came[y] = x
                    stack.append(y)
        back = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            j = prv[x]
            for y in dep_in[x] if j < 0 else (*dep_in[x], j):
                if rank[y] > rv and y not in back:
                    back.add(y)
                    stack.append(y)
        at = rank.__getitem__
        slots = sorted(map(at, chain(back, came)))
        moved = sorted(back, key=at) + sorted(came, key=at)
        for r, x in zip(slots, moved):
            rank[x] = r
            order[r] = x
        return []

    def _intern(self, device: int, entries: tuple) -> list[int]:
        """A device's compute indices in entry order."""
        if self._plain.get(device, False):
            return list(map(self._index.__getitem__, entries))
        index = self._index
        return [index[e] for e in entries if not isinstance(e, CollectiveOp)]

    def _accept(self, walk: Walk) -> None:
        self.walk = walk
        self.order = walk.order

    def _inversion(self, device: int, pi: int, ci: int) -> Violation:
        keys = self._keys
        return Violation(
            kind="dep-inversion", device=device,
            message=(f"{_fmt(keys[ci])} placed before its "
                     f"local producer {_fmt(keys[pi])}"),
            subject=(keys[pi], keys[ci]),
        )

    def _cycle(self, cycle: list[ComputeKey]) -> Violation:
        path = " -> ".join(_fmt(k) for k in cycle)
        return Violation(
            kind="cross-device-cycle",
            device=self.program.ops[cycle[0]].device,
            message=(f"order and dataflow edges form a wait cycle: "
                     f"{path} -> {_fmt(cycle[0])}"),
            subject=tuple(cycle),
        )

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
