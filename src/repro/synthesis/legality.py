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
  pass; a mutated candidate instead *repairs* its parent's order
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

:class:`LegalityChecker` is the search-rate form: every rule reads the
ordering's entry ids against per-id arrays of the program's
:class:`~repro.synthesis.ordering.EntryTable` and dependency edges
built once.  :func:`check_ordering` runs a throwaway checker's full
check — the reference every repair is fuzzed against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from ..actions.program import ComputeKey, Program
from ..errors import SchedulingError
from ..schedules.validation import residual_cycle
from .ordering import EntryTable, ScheduleOrdering

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

    ``device_entries`` is the ordering's own id tuples (its ``seqs``)
    and ``seqs`` each device's compute ids in that order (the same
    tuples when the program has no collectives); ``nxt`` / ``prv`` are
    the order edges leaving / entering each compute (``-1`` at a
    device's ends); ``order`` is a topological order of the wait graph
    and ``rank`` its inverse.  Copy-on-write: a repair copies the
    arrays it changes and shares the rest, so a walk's arrays never
    change once built.
    """

    device_entries: tuple[tuple[int, ...], ...]
    seqs: tuple[tuple[int, ...], ...]
    nxt: list[int]
    prv: list[int]
    rank: list[int]
    order: list[int]


class LegalityChecker:
    """Reusable checker over one program's (immutable) dataflow facts.

    Construction builds the program's entry table (:attr:`table`) and
    its dependency edges once; :meth:`check` then validates any number
    of candidate orderings.
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
        table = self.table = EntryTable(program)
        idx = table.index
        n = table.n_computes
        #: dataflow edges as producer -> consumers adjacency (and its
        #: reverse), in-degrees
        self._dep_out: list[list[int]] = [[] for _ in range(n)]
        self._dep_in: list[list[int]] = [[] for _ in range(n)]
        #: per device, the local (producer, consumer) index pairs whose
        #: relative order the ordering must preserve
        self._local_pairs: dict[int, list[tuple[int, int]]] = {
            device: [] for device in table.base
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
                if dep.tag is None:
                    pairs = self._local_pairs[program.ops[key].device]
                    self._local_in[ci].append((len(pairs), pi))
                    pairs.append((pi, ci))
        self._dep_indeg = list(map(len, self._dep_in))
        #: the last :meth:`check`'s :class:`Walk` and its topological
        #: order; ``None`` when that check stopped before or at the
        #: deadlock rule
        self.walk: Walk | None = None
        self.order: list[int] | None = None
        #: per device, per grad-sync (stage, replica): how many matching
        #: backwards the collective must trail
        self._sync_totals: dict[int, dict[tuple[int, int], int]] = {}
        site = table.site
        for device, seq in table.base.items():
            syncs = {site[e] for e in seq if e >= n} - {None}
            if syncs:
                self._sync_totals[device] = Counter(
                    site[e] for e in seq if e < n and site[e] in syncs)

    # -- entry point ------------------------------------------------------

    def check(self, ordering: ScheduleOrdering,
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
        candidate — so the structural rule is skipped and the deadlock
        rule repairs that walk (:meth:`_repair_dependencies`).
        """
        program = self.program
        self.walk = self.order = None
        ordering = self.table.adopt(ordering)
        frontier = ordering.recompute_frontier
        if frontier is not None and program.resources is None:
            raise SchedulingError(
                f"{program.name}: a recompute frontier needs a "
                "resource-annotated program (compile with resources=...)"
            )
        if parent is not None:
            violations = self._repair_dependencies(ordering, parent)
        else:
            violations = self._check_structure(ordering)
            if violations:
                return violations
            violations = self._check_dependencies(ordering)
        if program.tracks_memory:
            violations.extend(self._check_capacity(ordering))
        if self._sync_totals:
            violations.extend(self._check_collectives(ordering))
        return violations

    # -- structural -------------------------------------------------------

    def _check_structure(self,
                         ordering: ScheduleOrdering) -> list[Violation]:
        out: list[Violation] = []
        have = set(ordering.devices)
        want = set(self.table.base)
        if have != want:
            out.append(Violation(
                kind="device-set", device=-1,
                message=(f"ordering covers devices {sorted(have)}, "
                         f"program has {sorted(want)}"),
            ))
            return out
        names = self.table.names
        for device, seq in zip(ordering.devices, ordering.seqs):
            base_counts = Counter(self.table.base[device])
            theirs = Counter(seq)
            if theirs == base_counts:
                continue
            missing = sorted(map(names.__getitem__,
                                 (base_counts - theirs).elements()))
            extra = sorted(map(names.__getitem__,
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

    def _computes(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """A device's compute ids, in order (its collectives dropped)."""
        n = self.table.n_computes
        return ids if n == len(self.table.entries) else tuple(
            e for e in ids if e < n)

    def _check_dependencies(
        self, ordering: ScheduleOrdering,
    ) -> list[Violation]:
        """One walk of the ordering builds the wait graph (per-device
        entry order + dataflow edges); same-device inversions are read
        off its positions, and a Kahn pass over it yields either a
        cross-device cycle witness or the topological order
        (:attr:`walk`)."""
        n = self.table.n_computes
        pos = [0] * n
        nxt = [-1] * n          # the order edge leaving each compute
        prv = [-1] * n          # ... and entering it
        indeg = self._dep_indeg.copy()
        seqs = tuple(map(self._computes, ordering.seqs))
        for seq in seqs:
            for k, cur in enumerate(seq):
                pos[cur] = k
            for cur, following in zip(seq, seq[1:]):
                nxt[cur] = following
                prv[following] = cur
                indeg[following] += 1

        out: list[Violation] = []
        for device in ordering.devices:
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
            self._accept(Walk(ordering.seqs, seqs, nxt, prv, rank, order))
            return out
        # Rare path: rebuild in key space for a readable witness.
        keys = self.table.entries[:n]
        key_out: dict[ComputeKey, list[ComputeKey]] = {k: [] for k in keys}
        for i, consumers in enumerate(dep_out):
            key_out[keys[i]] += (keys[j] for j in consumers)
            if nxt[i] >= 0:
                key_out[keys[i]].append(keys[nxt[i]])
        cycle = residual_cycle(key_out, dict(zip(keys, indeg)))
        index = self.table.index
        out.append(self._cycle([index[k] for k in cycle]))
        return out

    def _repair_dependencies(
        self, ordering: ScheduleOrdering, parent: Walk,
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
        if ordering.seqs is parent.device_entries:
            self._accept(parent)  # a recompute-frontier move
            return []
        seqs = list(parent.seqs)
        windows = []
        for d, (device, ids, was) in enumerate(zip(
                ordering.devices, ordering.seqs, parent.device_entries)):
            if ids is was or ids == was:
                continue
            old = seqs[d]
            seq = self._computes(ids)
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
            self._accept(Walk(ordering.seqs, parent.seqs, parent.nxt,
                              parent.prv, parent.rank, parent.order))
            return []

        out: list[Violation] = []
        local_in = self._local_in
        for device, _, seq, lo, hi in windows:
            at = {c: k for k, c in enumerate(seq[lo:hi + 1])}
            hits = [(j, p, c) for c, k in at.items() for j, p in local_in[c]
                    if at.get(p, -1) > k]
            if hits:
                hits.sort()
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
                    out.append(self._cycle(cycle))
                    return out
            nxt[u] = v
            prv[v] = u
        self._accept(Walk(ordering.seqs, tuple(seqs), nxt, prv, rank,
                          order))
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

    def _accept(self, walk: Walk) -> None:
        self.walk = walk
        self.order = walk.order

    def _inversion(self, device: int, pi: int, ci: int) -> Violation:
        keys, names = self.table.entries, self.table.names
        return Violation(
            kind="dep-inversion", device=device,
            message=(f"{names[ci]} placed before its "
                     f"local producer {names[pi]}"),
            subject=(keys[pi], keys[ci]),
        )

    def _cycle(self, cycle: list[int]) -> Violation:
        keys, names = self.table.entries, self.table.names
        path = " -> ".join(names[i] for i in cycle)
        return Violation(
            kind="cross-device-cycle",
            device=self.program.ops[keys[cycle[0]]].device,
            message=(f"order and dataflow edges form a wait cycle: "
                     f"{path} -> {names[cycle[0]]}"),
            subject=tuple(keys[i] for i in cycle),
        )

    # -- memory -----------------------------------------------------------

    def _check_capacity(
        self, ordering: ScheduleOrdering,
    ) -> list[Violation]:
        """The event core's per-device watermark walk, without events.

        Per device the deltas apply in program order — alloc at forward
        start, free at backward end, the capacity check firing after
        each alloc — so execution timing never changes a device's peak
        and this sequential walk is *exact*, not a bound.
        """
        program = self.program
        capacity_bytes = self.capacity_bytes
        out: list[Violation] = []
        if capacity_bytes is None:
            return out
        resources = program.resources
        assert resources is not None
        frontier = ordering.recompute_frontier
        if frontier is not None:
            resources = resources.with_recompute_from(frontier)
        activation = resources.activation_bytes
        table = self.table
        n, forward, stage = table.n_computes, table.forward, table.stage
        for device, seq in zip(ordering.devices, ordering.seqs):
            level = program.static_bytes.get(device, 0.0)
            if level > capacity_bytes:
                out.append(Violation(
                    kind="capacity", device=device,
                    message=(f"static residency {level:.0f} bytes alone "
                             f"exceeds capacity {capacity_bytes}"),
                ))
                continue
            for e in seq:
                if e >= n:
                    continue
                if forward[e]:
                    level += activation[stage[e]]
                    if level > capacity_bytes:
                        out.append(Violation(
                            kind="capacity", device=device,
                            message=(f"allocating {table.names[e]} lifts "
                                     f"the watermark to {level:.0f} "
                                     f"bytes, over capacity "
                                     f"{capacity_bytes}"),
                            subject=(table.entries[e],),
                        ))
                        break
                else:
                    level -= activation[stage[e]]
        return out

    # -- collectives ------------------------------------------------------

    def _check_collectives(
        self, ordering: ScheduleOrdering,
    ) -> list[Violation]:
        out: list[Violation] = []
        table = self.table
        n, site, entries = table.n_computes, table.site, table.entries
        names = table.names
        for device, totals in self._sync_totals.items():
            seq = ordering.ids(device)
            seen = dict.fromkeys(totals, 0)
            for i, e in enumerate(seq):
                if e < n:
                    if site[e] in seen:
                        seen[site[e]] += 1
                    continue
                at = site[e]
                if at is None or seen.get(at, 0) >= totals.get(at, 0):
                    continue
                late = [o for o in seq[i + 1:] if o < n and site[o] == at]
                out.append(Violation(
                    kind="collective-order", device=device,
                    message=(f"{names[e]} posted before {names[late[0]]} "
                             "finalizes its gradient"),
                    subject=(entries[e], *map(entries.__getitem__, late)),
                ))
        return out


def check_ordering(
    program: Program,
    ordering: ScheduleOrdering,
    capacity_bytes: int | None = None,
) -> list[Violation]:
    """One-shot form of :meth:`LegalityChecker.check`."""
    return LegalityChecker(program, capacity_bytes).check(ordering)


def is_legal(
    program: Program,
    ordering: ScheduleOrdering,
    capacity_bytes: int | None = None,
) -> bool:
    """Convenience predicate over :func:`check_ordering`."""
    return not check_ordering(program, ordering, capacity_bytes)
