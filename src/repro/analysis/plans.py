"""The analysis-level plan cache: shape → sizes → seconds.

A sweep grid crosses three kinds of axes, and the cache has a level for
each.  **Shape** axes (scheme, pipeline depth, micro-batch count,
DP/TP widths, waves, prefetch, batching) decide the schedule, the
action lists and every control-flow array of the lowered plan: one
:class:`PlanShape` per shape key is the only place the schedule →
compile → collective-annotation → lowering chain runs.  The **micro-batch
size and the model** only size a shape (tensor bytes, stage resources,
collective payloads and counts): a :class:`PlanEntry` is one such *size
binding* (:meth:`Program.with_sizes` plus its collectives, then
:meth:`ExecutablePlan.with_sizes`), sharing the shape's arrays and
rebuilding the byte-bearing columns; its schedule shares the shape's op
lists under its own :class:`~repro.config.PipelineConfig`.  The
**cluster** only times an entry: its cost-only cells **re-time** its
plan against their oracles in one call (:meth:`PlanEntry.bound_plans`)
before executing; the capacity knob is no axis at all (enforcement is
an execute-time argument).

Safety of sharing.  The key (:func:`repro.analysis.throughput.plan_key`,
the only one) is ``(shape key, microbatch size, ModelSpec)``, the shape
key ``(scheme, TP, P, D, D-as-compiled, TP-sync compiled?, B, W,
prefetch, batching)``; cluster and capacity are deliberately absent,
and out-of-range layouts are rejected per call, before the cache is
consulted.  *Nothing flows upward*: no shape array depends on a byte
count, no size column on a device speed or topology, so the binding a
shape was first built for leaves no trace in a sibling's.
*Shared means immutable*: a shape's action lists are tuples, its
``ops``/``deps`` read-only views, and every binding copies the lists
it hands out, so a consumer that mutates in place raises instead of
corrupting a sibling binding's plan.  And the contract is *verifiable*:
:attr:`ExecutablePlan.plan_key` content-hashes exactly the shape and
size arrays execution reads, and the test suite pins that a size-bound
plan equals an independent compile + lowering of the same cell (keys,
``congruence_key``, decoded lists; any model, cluster or capacity) and
that measuring models or micro-batch sizes in either order yields
identical records.

The cache is process-global (each sweep worker process grows its own)
and bounded LRU over entries — an over-capacity sweep keeps the
structures it is actively re-timing and evicts the stalest ones; a
shape lives exactly as long as a retained entry references it.
``repro sweep --profile`` surfaces both levels' counters.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

from ..actions.lowering import ExecutablePlan
from ..actions.program import Program
from ..schedules.base import Schedule

#: default bound on retained plans (a full fig09-style grid is ~50)
MAX_PLANS = 256

#: bound on the cost bindings one plan entry retains (a binding per
#: cluster the structure has met; the Fig. 11 grid keeps 16 live)
MAX_BINDINGS = 64


@dataclass
class PlanShape:
    """What the size bindings of one pipeline shape share: the
    schedule's op lists, the compiled shape (collective-free,
    unit-sized, ``frozen()``) their programs are size bindings of, and
    the first binding's lowering — kept for its shape arrays, all
    ``with_sizes`` reads of it."""

    schedule: Schedule
    program: Program
    plan: ExecutablePlan


@dataclass
class PlanEntry:
    """Everything a measurement reuses across cost-only axes."""

    schedule: Schedule
    program: Program
    plan: ExecutablePlan
    #: what ``program``/``plan`` are a size binding of; held so the
    #: shape stays findable in :class:`PlanCache` while this entry is
    shape: PlanShape | None = None
    #: cost bindings of ``plan`` already produced, keyed by the cost
    #: inputs (cluster, stage costs, TP spacing); a repeated-pass sweep
    #: re-times each (structure, cluster) pair once and thereafter
    #: reuses the bound plan and its duration column.  Bounded LRU
    #: like :class:`PlanCache` (insertion order is recency order);
    #: evicted with the entry.
    bindings: dict = field(default_factory=dict)
    #: serializes binding fills so concurrent readers of one entry (the
    #: serving layer's worker threads) agree on a single bound plan per
    #: key instead of racing duplicate re-times
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bound_plans(self, keys: list, oracle_factories: list) -> list:
        """The plan re-timed under the oracle each key stands for, in
        order; the keys not bound yet in one ``retime`` call.

        ``oracle_factories[j]`` builds ``keys[j]``'s oracle only on a
        miss; a key must capture every input its oracle's answers
        depend on (the measurement layer uses ``(cluster, stage costs,
        TP)`` — see :class:`repro.runtime.costs.ClusterCosts`).
        Deterministic oracles make the reuse exact: binding the same
        structure under an equal oracle yields identical columns.
        """
        with self._lock:
            bindings = self.bindings
            missing = {key: make for key, make in zip(keys, oracle_factories)
                       if key not in bindings}
            if missing:
                bindings.update(zip(missing, self.plan.retime(
                    [make() for make in missing.values()])))
            # (re-)insert each key: most recently used
            plans = [bindings.setdefault(k, bindings.pop(k)) for k in keys]
            while len(bindings) > MAX_BINDINGS:
                bindings.pop(next(iter(bindings)))
            return plans


@dataclass
class PlanCache:
    """Bounded LRU map from structural cell keys to plan entries.

    Insertion order of the backing dict doubles as recency order: a hit
    re-inserts its entry at the back, so eviction (popping the front)
    always discards the least recently used structure.  ``maxsize`` is
    per-instance configurable; ``evictions`` counts entries dropped to
    enforce it.

    Shapes are registered *weakly*: one stays findable exactly as long
    as a retained entry (or a caller mid-build) references it, so the
    level needs no bound or eviction of its own.

    All mutation (the LRU re-insert on ``get``, eviction on ``put``,
    the hit/miss/eviction counters) happens under one lock, so the
    cache is safe to share across threads — the serving layer's handler
    threads and its micro-batch dispatcher hit this very instance
    concurrently.  The invariants the stress test pins: every ``get``
    bumps exactly one counter, ``len`` never exceeds ``maxsize``, and
    ``insertions == len + evictions`` at any quiescent point.
    """

    maxsize: int = MAX_PLANS
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: ``put`` calls that added a key not already present (re-puts of a
    #: live key are not insertions); with the lock held this makes the
    #: eviction accounting exactly checkable
    insertions: int = 0
    shape_hits: int = 0
    shape_misses: int = 0
    _store: dict = field(default_factory=dict)
    _shapes: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def get(self, key: tuple) -> PlanEntry | None:
        """The cached entry for ``key`` (counts a hit/miss, bumps LRU)."""
        with self._lock:
            found = self._store.pop(key, None)
            if found is not None:
                self._store[key] = found  # re-insert: most recently used
                self.hits += 1
            else:
                self.misses += 1
            return found

    def put(self, key: tuple, entry: PlanEntry) -> PlanEntry:
        """Retain ``entry`` under ``key``, evicting the LRU past maxsize."""
        with self._lock:
            if self._store.pop(key, None) is None:
                self.insertions += 1
            self._store[key] = entry
            while len(self._store) > self.maxsize:
                self._store.pop(next(iter(self._store)))
                self.evictions += 1
            return entry

    def get_shape(self, key: tuple) -> PlanShape | None:
        """The live shape under ``key`` (counts a shape hit/miss)."""
        with self._lock:
            found = self._shapes.get(key)
            self.shape_hits += found is not None
            self.shape_misses += found is None
            return found

    def put_shape(self, key: tuple, shape: PlanShape) -> PlanShape:
        """Make ``shape`` findable for as long as an entry holds it."""
        with self._lock:
            self._shapes[key] = shape
            return shape

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._shapes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.insertions = 0
            self.shape_hits = 0
            self.shape_misses = 0

    def describe(self) -> str:
        with self._lock:
            return (f"plan cache: {len(self._store)}/{self.maxsize} plans, "
                    f"{self.hits} hits, {self.misses} misses, "
                    f"{self.evictions} evictions; "
                    f"{len(self._shapes)} shapes, {self.shape_hits} hits, "
                    f"{self.shape_misses} misses")


_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-global cache the measurement harnesses share."""
    return _CACHE
