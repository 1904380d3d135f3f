"""Span tracer for the end-to-end benchmark: layers measured from outside.

Only the *traced* run uses this module.  :data:`TARGETS` is the one
explicit table of layer-boundary functions — ``(module, attribute, span
name)`` — and :meth:`Tracer.install` rebinds each of them, in every
``repro`` module namespace that imported it by name, to a wrapper that
records a span: name, start, end, thread, the span that caused it and a
request id shared by all spans of one request.  Spans stay in memory
until the run ends; :func:`summarize` folds them into per-name call
counts, inclusive seconds and self seconds (a span's duration minus the
part its child spans cover), :func:`layer_metrics` turns those into the
per-layer metrics ``BENCHMARK.json`` names, and :func:`chrome_trace`
writes the timeline in the format ``repro trace`` emits for *simulated*
time, so both open side by side in Perfetto.

A table entry that no longer resolves (a later refactor renamed it) is
skipped and counted in ``trace.missing_targets``: later changes may not
edit this directory, so the tracer degrades and never crashes.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    """One finished span, as analysed and exported."""

    name: str
    start: float            # time.perf_counter() seconds (system-wide)
    end: float
    pid: int
    tid: int
    parent: int | None      # index of the causing span in the same list
    rid: int | str | None   # request id shared by one request's spans


# -- counters taken at the same boundaries -----------------------------------
# Each receives (args, kwargs, result) of the wrapped call and returns
# {counter: increment}; a counter that raises is dropped, never fatal.


def _lanes(args, _kwargs, result):
    return {"analysis.lanes": len(args[0]),
            "analysis.static_pruned": sum(
                1 for out in result
                if getattr(out, "statically_pruned", False))}


def _one_lane(_args, _kwargs, result):
    return {"analysis.lanes": 1,
            "analysis.static_pruned":
                int(getattr(result, "statically_pruned", False))}


def _batch_events(args, _kwargs, _result):
    return {"runtime.events": sum(p.n_actions for p in args[0].plans)}


def _plan_events(args, _kwargs, _result):
    return {"runtime.events": args[0].n_actions}


def _lowered(_args, _kwargs, result):
    return {"actions.lowered_actions": result.n_actions}


def _cells(_args, _kwargs, result):
    return {"sweep.cells": len(result)}


def _cache_hit(_args, _kwargs, result):
    return {"sweep.cache_hits": int(result is not None)}


def _search(_args, _kwargs, result):
    return {"synthesis.evaluated": result.evaluated,
            "synthesis.best_makespan": result.best.makespan}


def _request_id(args, _kwargs):
    # the benchmark's client sends the id its own ``op`` span carries
    return args[0].headers.get("X-Request-Id")


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                       # "function" or "Class.method"
    span: str
    count: Callable | None = None
    rid: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.cli", "main", "cli.main"),
    Target("repro.cluster.presets", "get_cluster", "cluster.get_cluster"),
    Target("repro.models.costs", "stage_costs", "models.stage_costs"),
    Target("repro.schedules.factory", "build_schedule", "schedules.build"),
    Target("repro.actions.program", "compile_program", "actions.compile"),
    Target("repro.actions.collectives", "with_gradient_sync",
           "actions.compile"),
    Target("repro.actions.collectives", "with_tp_sync", "actions.compile"),
    Target("repro.actions.reorder", "Reorderer.reorder", "actions.compile"),
    Target("repro.actions.lowering", "ExecutablePlan.lower",
           "actions.lower", count=_lowered),
    Target("repro.actions.lowering", "ExecutablePlan.retime",
           "actions.retime"),
    Target("repro.analysis.throughput", "measure_throughput",
           "analysis.measure", count=_one_lane),
    Target("repro.analysis.throughput", "measure_throughput_batch",
           "analysis.measure", count=_lanes),
    Target("repro.analysis.hybrid", "measure_hybrid_throughput",
           "analysis.measure", count=_one_lane),
    Target("repro.analysis.hybrid", "measure_hybrid_throughput_batch",
           "analysis.measure", count=_lanes),
    Target("repro.runtime.simulator", "sim_result_from_events",
           "analysis.fold"),
    Target("repro.analysis.throughput", "throughput_from_simulation",
           "analysis.fold"),
    Target("repro.runtime.batched", "execute_many", "runtime.execute"),
    Target("repro.runtime.batched", "execute_batch", "runtime.execute",
           count=_batch_events),
    Target("repro.runtime.events", "execute_plan", "runtime.scalar",
           count=_plan_events),
    Target("repro.sweep.spec", "SweepSpec.expand", "sweep.expand",
           count=_cells),
    Target("repro.sweep.engine", "point_key", "sweep.key"),
    Target("repro.sweep.cache", "ResultCache.get", "sweep.cache_get",
           count=_cache_hit),
    Target("repro.sweep.cache", "ResultCache.put", "sweep.cache_put"),
    Target("repro.sweep.engine", "assemble_table", "sweep.assemble"),
    Target("repro.sweep.table", "SweepTable.to_json", "sweep.export"),
    Target("repro.sweep.table", "SweepTable.to_csv", "sweep.export"),
    Target("repro.sweep.table", "SweepTable.format", "sweep.export"),
    Target("repro.sweep.engine", "run_sweep", "sweep.run"),
    Target("repro.serve.server", "_Handler._handle_advise", "serve.handle",
           rid=_request_id),
    Target("repro.serve.codec", "AdviseQuery.from_payload", "serve.decode"),
    Target("repro.serve.queries", "advise_requests", "serve.expand"),
    Target("repro.serve.queries", "advise_answer", "serve.answer"),
    Target("repro.serve.codec", "dumps_canonical", "serve.encode"),
    Target("repro.serve.batcher", "MicroBatcher.measure_flat",
           "serve.submit_wait"),
    Target("repro.serve.batcher", "MicroBatcher.measure_hybrid",
           "serve.submit_wait"),
    Target("repro.serve.batcher", "MicroBatcher._execute", "serve.dispatch"),
    Target("repro.synthesis.search", "synthesize", "synthesis.search",
           count=_search),
    Target("repro.synthesis.legality", "LegalityChecker.check",
           "synthesis.legality"),
    Target("repro.synthesis.mutations", "propose_mutation",
           "synthesis.mutate"),
)


def _resolve(target: Target):
    """``(owner, name, raw attribute)`` of a target, importing its module.

    Raises ``ImportError`` / ``AttributeError`` / ``KeyError`` when the
    target is gone.
    """
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def missing_targets(targets=TARGETS) -> list[str]:
    """Table entries that no longer resolve in this checkout."""
    gone = []
    for target in targets:
        try:
            _resolve(target)
        except (ImportError, AttributeError, KeyError):
            gone.append(f"{target.module}:{target.attr}")
    return gone


class Tracer:
    """Installs the span wrappers and holds what they record."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.counters: dict[str, float] = {}
        self._records: list[list] = []   # [name, start, end, tid, parent, rid]
        self._tls = threading.local()
        self._rids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending: list[Target] = []
        self._by_id: dict[int, object] = {}     # id(original) -> wrapper
        self._undo: list[tuple[object, str, object]] = []
        self._import = None

    # -- installation --------------------------------------------------------

    def install(self, lazy: bool = False) -> None:
        """Rebind every target to its span wrapper.

        ``lazy=False`` imports each target's module first (in-process
        workloads: imports belong to set-up anyway).  ``lazy=True``
        wraps only what is already imported and hooks ``__import__`` to
        wrap the rest when the program itself imports it — the traced
        CLI child must not pay for imports the command would not make.
        The hook also records each outermost import that loaded new
        modules as a ``cli.import`` span.
        """
        self._pending = list(self.targets)
        if not lazy:
            for target in self.targets:
                try:
                    importlib.import_module(target.module)
                except ImportError:
                    pass
        self._wrap_loaded()
        if lazy:
            self._import = builtins.__import__
            builtins.__import__ = self._import_hook

    def uninstall(self) -> None:
        if self._import is not None:
            builtins.__import__ = self._import
            self._import = None
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._by_id.clear()
        self._pending = []

    def _wrap_loaded(self) -> None:
        with self._lock:
            waiting = []
            for target in self._pending:
                if target.module not in sys.modules:
                    waiting.append(target)
                    continue
                try:
                    owner, name, raw = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    continue    # counted by missing_targets()
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(self._wrap(raw.__func__, target))
                else:
                    wrapper = self._wrap(raw, target)
                    self._by_id[id(raw)] = wrapper
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, raw))
            self._pending = waiting
            # `from x import f` copies: rebind them wherever they landed
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "repro"
                                          or modname.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    wrapper = self._by_id.get(id(value))
                    if wrapper is not None:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, value))

    def _import_hook(self, name, globals=None, locals=None, fromlist=(),
                     level=0):
        tls = self._tls
        if getattr(tls, "importing", False):
            return self._import(name, globals, locals, fromlist, level)
        loaded = len(sys.modules)
        tls.importing = True
        start = time.perf_counter()
        try:
            return self._import(name, globals, locals, fromlist, level)
        finally:
            tls.importing = False
            if len(sys.modules) != loaded:
                self.record("cli.import", start, time.perf_counter())
                if self._pending:
                    self._wrap_loaded()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _open(self, name: str, rid=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent[5] if parent is not None else next(self._rids)
        record = [name, time.perf_counter(), 0.0, threading.get_ident(),
                  parent, rid]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._tls.stack.pop()
        self._records.append(record)

    def _wrap(self, fn, target: Target):
        name, count, rid_of = target.span, target.count, target.rid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = None
            if rid_of is not None:
                try:
                    rid = rid_of(args, kwargs)
                except Exception:   # noqa: BLE001 - degrade, never crash
                    rid = None
            record = self._open(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                try:
                    self.add(count(args, kwargs, result))
                except Exception:   # noqa: BLE001 - degrade, never crash
                    self.add({"trace.count_errors": 1})
            return result

        return traced

    @contextmanager
    def span(self, name: str, rid=None):
        """Record the block as a span (the benchmark's own ``op`` spans)."""
        record = self._open(name, rid)
        try:
            yield record
        finally:
            self._close(record)

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-timed leaf span under the current one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = parent[5] if parent is not None else next(self._rids)
        self._records.append(
            [name, start, end, threading.get_ident(), parent, rid])

    def add(self, increments: dict) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def clear(self) -> None:
        """Forget everything recorded so far (set-up, warm-up)."""
        with self._lock:
            del self._records[:]
            self.counters.clear()

    def export(self, pid: int) -> list[Span]:
        """Finished spans with parents as list indices."""
        records = list(self._records)
        index = {id(record): i for i, record in enumerate(records)}
        return [
            Span(name, start, end, pid, tid,
                 index.get(id(parent)) if parent is not None else None, rid)
            for name, start, end, tid, parent, rid in records
        ]


def program_counters() -> dict[str, float]:
    """Counts the program keeps itself (plan cache, batched runtime).

    Read defensively — a renamed counter reads as absent, not an error.
    """
    out: dict[str, float] = {}
    try:
        from repro.analysis import plan_cache
        cache = plan_cache()
        for key in ("hits", "misses", "evictions"):
            out[f"plan.{key}"] = getattr(cache, key)
    except Exception:   # noqa: BLE001 - degrade, never crash
        pass
    try:
        from repro import profiling
        stats = profiling.batching_stats()
        for key in ("batches", "lanes", "recovered_lanes", "scalar_cells"):
            out[f"batching.{key}"] = getattr(stats, key)
    except Exception:   # noqa: BLE001 - degrade, never crash
        pass
    return out


# -- analysis ----------------------------------------------------------------


def adopt(spans: list[Span], child: list, parent_index: int | None
          ) -> None:
    """Append ``child`` (spans of another process) under ``parent_index``."""
    offset = len(spans)
    for row in child:
        span = Span(*row)
        parent = (parent_index if span.parent is None
                  else span.parent + offset)
        spans.append(span._replace(parent=parent))


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus what its direct children cover.

    A child is a span recorded while its parent was the innermost open
    span *on the same thread*; work another thread does meanwhile is
    that thread's own root span, so nothing is subtracted twice.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def summarize(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """``{name: (calls, inclusive seconds, self seconds)}``.

    Calls and inclusive seconds count only outermost spans of a name
    (``execute_many`` calling ``execute_batch`` is one ``runtime.execute``);
    self seconds add up over every span of the name.
    """
    own = self_times(spans)
    out: dict[str, list] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, [0, 0.0, 0.0])
        entry[2] += own[i]
        up = span.parent
        while up is not None and spans[up].name != span.name:
            up = spans[up].parent
        if up is None:
            entry[0] += 1
            entry[1] += span.end - span.start
    return {name: tuple(entry) for name, entry in out.items()}


def chrome_trace(spans: list[Span]) -> dict:
    """The spans as Chrome-trace JSON (open at https://ui.perfetto.dev)."""
    origin = min((span.start for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": span.name, "cat": span.name.split(".")[0], "ph": "X",
             "ts": (span.start - origin) * 1e6,
             "dur": (span.end - span.start) * 1e6,
             "pid": span.pid, "tid": span.tid,
             "args": {"rid": span.rid, "parent": span.parent}}
            for span in spans
        ],
    }


#: per-layer metrics: (name, unit, better, source).  Sources read the
#: span summary — ``total`` inclusive seconds, ``self`` seconds, ``calls``
#: — a ``counter``, or a value the workload measured itself (``extra``);
#: span and counter sources are divided by the number of operations, so
#: every number is *per operation* of the workload.  ``derived`` metrics
#: are ratios of the others (see :func:`layer_metrics`).  Anything the
#: workload's path does not touch reads 0.
LAYER_METRICS: tuple[tuple[str, str, str, tuple], ...] = (
    ("cli.interp_s", "s", "lower", ("extra",)),
    ("cli.import_s", "s", "lower", ("total", "cli.import")),
    ("cli.modules_loaded", "count", "lower", ("extra",)),
    ("cli.main_self_s", "s", "lower", ("self", "cli.main")),
    ("cli.exit_s", "s", "lower", ("total", "cli.exit")),
    ("cluster.get_cluster_s", "s", "lower", ("total", "cluster.get_cluster")),
    ("cluster.get_cluster_calls", "count", "lower",
     ("calls", "cluster.get_cluster")),
    ("models.stage_costs_s", "s", "lower", ("total", "models.stage_costs")),
    ("models.stage_costs_calls", "count", "lower",
     ("calls", "models.stage_costs")),
    ("schedules.build_s", "s", "lower", ("total", "schedules.build")),
    ("schedules.build_calls", "count", "lower", ("calls", "schedules.build")),
    ("actions.compile_s", "s", "lower", ("total", "actions.compile")),
    ("actions.compile_calls", "count", "lower", ("calls", "actions.compile")),
    ("actions.lower_s", "s", "lower", ("total", "actions.lower")),
    ("actions.lowered_actions", "count", "lower",
     ("counter", "actions.lowered_actions")),
    ("actions.retime_s", "s", "lower", ("total", "actions.retime")),
    ("actions.retime_calls", "count", "lower", ("calls", "actions.retime")),
    ("analysis.measure_s", "s", "lower", ("total", "analysis.measure")),
    ("analysis.measure_self_s", "s", "lower", ("self", "analysis.measure")),
    ("analysis.fold_s", "s", "lower", ("total", "analysis.fold")),
    ("analysis.lanes", "count", "higher", ("counter", "analysis.lanes")),
    ("analysis.static_pruned", "count", "higher",
     ("counter", "analysis.static_pruned")),
    ("analysis.plan_hits", "count", "higher", ("counter", "plan.hits")),
    ("analysis.plan_misses", "count", "lower", ("counter", "plan.misses")),
    ("analysis.plan_evictions", "count", "lower",
     ("counter", "plan.evictions")),
    ("analysis.plan_hit_ratio", "ratio", "higher", ("derived",)),
    ("runtime.execute_s", "s", "lower", ("total", "runtime.execute")),
    ("runtime.execute_calls", "count", "lower", ("calls", "runtime.execute")),
    ("runtime.scalar_s", "s", "lower", ("total", "runtime.scalar")),
    ("runtime.scalar_calls", "count", "lower", ("calls", "runtime.scalar")),
    ("runtime.events", "count", "lower", ("counter", "runtime.events")),
    ("runtime.events_per_s", "1/s", "higher", ("derived",)),
    ("runtime.batches", "count", "lower", ("counter", "batching.batches")),
    ("runtime.batched_lanes", "count", "higher",
     ("counter", "batching.lanes")),
    ("runtime.recovered_lanes", "count", "higher",
     ("counter", "batching.recovered_lanes")),
    ("runtime.fallback_lanes", "count", "lower",
     ("counter", "batching.scalar_cells")),
    ("runtime.batched_lane_ratio", "ratio", "higher", ("derived",)),
    ("sweep.expand_s", "s", "lower", ("total", "sweep.expand")),
    ("sweep.cells", "count", "lower", ("counter", "sweep.cells")),
    ("sweep.key_s", "s", "lower", ("total", "sweep.key")),
    ("sweep.cache_get_s", "s", "lower", ("total", "sweep.cache_get")),
    ("sweep.cache_get_calls", "count", "lower", ("calls", "sweep.cache_get")),
    ("sweep.cache_hit_ratio", "ratio", "higher", ("derived",)),
    ("sweep.cache_put_s", "s", "lower", ("total", "sweep.cache_put")),
    ("sweep.cache_put_calls", "count", "lower", ("calls", "sweep.cache_put")),
    ("sweep.cache_bytes", "B", "lower", ("extra",)),
    ("sweep.assemble_s", "s", "lower", ("total", "sweep.assemble")),
    ("sweep.export_s", "s", "lower", ("total", "sweep.export")),
    ("sweep.run_self_s", "s", "lower", ("self", "sweep.run")),
    ("serve.decode_s", "s", "lower", ("total", "serve.decode")),
    ("serve.expand_s", "s", "lower", ("total", "serve.expand")),
    ("serve.answer_s", "s", "lower", ("total", "serve.answer")),
    ("serve.encode_s", "s", "lower", ("total", "serve.encode")),
    ("serve.submit_wait_s", "s", "lower", ("total", "serve.submit_wait")),
    ("serve.dispatch_busy_s", "s", "lower", ("total", "serve.dispatch")),
    ("serve.queue_wait_s", "s", "lower", ("derived",)),
    ("serve.http_overhead_ms", "ms", "lower", ("extra",)),
    ("serve.latency_p90_ms", "ms", "lower", ("extra",)),
    ("serve.latency_p99_ms", "ms", "lower", ("extra",)),
    ("serve.dispatches", "count", "lower", ("extra",)),
    ("serve.lanes_per_dispatch", "count", "higher", ("extra",)),
    ("serve.dedup_hits", "count", "higher", ("extra",)),
    ("serve.errors", "count", "lower", ("extra",)),
    ("synthesis.search_s", "s", "lower", ("total", "synthesis.search")),
    ("synthesis.evaluated", "count", "lower",
     ("counter", "synthesis.evaluated")),
    ("synthesis.legality_s", "s", "lower", ("total", "synthesis.legality")),
    ("synthesis.mutate_s", "s", "lower", ("total", "synthesis.mutate")),
    ("synthesis.best_makespan", "simtime", "lower",
     ("counter", "synthesis.best_makespan")),
    ("fidelity.fig09_gap_mae_pp", "pp", "lower", ("extra",)),
    ("host.calib_s", "s", "lower", ("extra",)),
    ("trace.op_ms", "ms", "lower", ("extra",)),
    ("trace.untraced_ratio", "ratio", "lower", ("derived",)),
    ("trace.spans", "count", "lower", ("derived",)),
    ("trace.missing_targets", "count", "lower", ("extra",)),
)


def _ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def layer_metrics(spans: list[Span], counters: dict, extra: dict,
                  ops: int) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced run.

    ``trace.untraced_ratio`` is the share of the operations' wall no
    layer span covers: the self time of the benchmark's own ``op``
    spans (less interpreter start, measured apart) over their duration.
    """
    summary = summarize(spans)
    pick = {"calls": 0, "total": 1, "self": 2}
    out: dict[str, float] = {}
    for name, _unit, _better, source in LAYER_METRICS:
        kind = source[0]
        if kind in pick:
            out[name] = summary.get(source[1], (0, 0.0, 0.0))[pick[kind]] / ops
        elif kind == "counter":
            out[name] = counters.get(source[1], 0) / ops
        elif kind == "extra":
            out[name] = float(extra.get(name, 0.0))
    out["analysis.plan_hit_ratio"] = _ratio(out["analysis.plan_hits"],
                                            out["analysis.plan_misses"])
    busy = out["runtime.execute_s"] + out["runtime.scalar_s"]
    out["runtime.events_per_s"] = out["runtime.events"] / busy if busy else 0.0
    out["runtime.batched_lane_ratio"] = _ratio(out["runtime.batched_lanes"],
                                               out["runtime.fallback_lanes"])
    gets = out["sweep.cache_get_calls"]
    out["sweep.cache_hit_ratio"] = (
        counters.get("sweep.cache_hits", 0) / ops / gets if gets else 0.0)
    out["serve.queue_wait_s"] = max(
        0.0, out["serve.submit_wait_s"] - out["serve.dispatch_busy_s"])
    _calls, op_total, op_self = summary.get("op", (0, 0.0, 0.0))
    interp = out["cli.interp_s"] * ops
    out["trace.untraced_ratio"] = (
        max(0.0, op_self - interp) / op_total if op_total else 0.0)
    out["trace.spans"] = len(spans) / ops
    return out
