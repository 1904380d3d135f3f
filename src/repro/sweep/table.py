"""Structured sweep results: filtering, best-cell queries, export.

A :class:`SweepTable` is the engine's output — one :class:`SweepRow`
per feasible grid cell, in deterministic spec-expansion order, plus a
:class:`SweepStats` accounting of where each result came from (fresh
computation, cache hit, or infeasible).  A row reads its cache record
in place; the export and advise rows are projections of it.  Tables
render to aligned text, CSV and JSON so benches and the CLI share one
formatting path.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..errors import ConfigError

#: flat export schema, also the CSV header
EXPORT_FIELDS = (
    "scheme", "cluster", "model", "p", "d", "w", "tp",
    "num_microbatches", "microbatch_size", "total_batch",
    "seq_per_s", "bubble_ratio", "peak_mem_gib", "iteration_s",
    "sync_overlap", "oom", "cached",
)

#: row attributes ``filter`` and ``best_per`` accept: every exported
#: column plus the pruning flag
_QUERY_FIELDS = frozenset(EXPORT_FIELDS) | {"statically_pruned"}


@dataclass
class SweepStats:
    """Where the sweep's results came from."""

    total: int = 0        #: grid cells expanded from the spec
    computed: int = 0     #: fresh ``measure_throughput`` evaluations
    cached: int = 0       #: cells served from the result cache
    infeasible: int = 0   #: cells ``measure_throughput`` rejected
    #: OOM cells rejected by the O(P) static-memory pre-check — these
    #: never entered the event loop (cached or fresh alike)
    pruned: int = 0

    def describe(self) -> str:
        text = (f"{self.total} cells: {self.computed} computed, "
                f"{self.cached} cached, {self.infeasible} infeasible")
        if self.pruned:
            text += f", {self.pruned} OOM-pruned without simulating"
        return text


def _column(name: str, default=None) -> property:
    """A read-only view of one column of a row's record."""
    return property(lambda row: row.record.get(name, default))


@dataclass(frozen=True)
class SweepRow:
    """One measured cell of a sweep grid: its coordinates plus its
    cache record, read in place and shared with the cache's index —
    never written to; every projection builds a new dict."""

    scheme: str
    cluster: str
    model: str
    p: int
    d: int
    w: int
    num_microbatches: int
    microbatch_size: int
    total_batch: int
    record: dict
    cached: bool = False
    tp: int = 1

    seq_per_s = _column("seq_per_s")            # None ⇔ OOM
    bubble_ratio = _column("bubble_ratio")
    peak_mem_bytes = _column("peak_mem_bytes")
    iteration_s = _column("iteration_s")
    sync_overlap = _column("sync_overlap")
    statically_pruned = _column("statically_pruned", False)

    @property
    def peak_mem_gib(self) -> float | None:
        peak = self.peak_mem_bytes
        return None if peak is None else peak / 2**30

    @property
    def oom(self) -> bool:
        return self.seq_per_s is None

    @property
    def throughput(self) -> float:
        """Sequences/second; 0 for OOM cells so ``max`` never picks them."""
        return self.seq_per_s or 0.0

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in EXPORT_FIELDS}


@dataclass
class SweepTable:
    """Results of one sweep run, in spec-expansion order."""

    rows: list[SweepRow] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # -- queries ---------------------------------------------------------

    def filter(self, **criteria) -> "SweepTable":
        """Rows whose attributes equal every criterion.

        ``table.filter(scheme="hanayo", p=8)`` keeps Hanayo cells with
        an 8-deep pipeline; stats are carried over unchanged.
        """
        for name in criteria:
            if name not in _QUERY_FIELDS:
                raise ConfigError(f"unknown sweep filter field {name!r}")
        rows = [r for r in self.rows
                if all(getattr(r, k) == v for k, v in criteria.items())]
        return SweepTable(rows=rows, stats=self.stats)

    def best(self, **criteria) -> SweepRow:
        """Highest-throughput non-OOM row matching ``criteria``."""
        alive = [r for r in self.filter(**criteria).rows if not r.oom]
        if not alive:
            raise ConfigError(
                f"no live sweep cell matches {criteria!r} "
                "(every candidate OOMs or none exists)"
            )
        return max(alive, key=lambda r: r.throughput)

    def best_per(self, attr: str) -> dict:
        """Best live row per distinct value of ``attr``.

        ``table.best_per("scheme")`` maps each scheme to its winning
        cell — the Fig. 9–12 reduction.  Groups with no live cell are
        omitted.
        """
        if attr not in _QUERY_FIELDS:
            raise ConfigError(f"unknown sweep field {attr!r}")
        out: dict = {}
        for row in self.rows:
            if row.oom:
                continue
            key = getattr(row, attr)
            if key not in out or row.throughput > out[key].throughput:
                out[key] = row
        return out

    def sorted_rows(self) -> list[SweepRow]:
        """Rows by descending throughput, OOM cells last."""
        return sorted(self.rows, key=lambda r: r.throughput, reverse=True)

    # -- export ----------------------------------------------------------

    def to_csv(self, path: str | pathlib.Path | None = None) -> str:
        """Render as CSV; optionally also write to ``path``."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=EXPORT_FIELDS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row.to_dict())
        text = buf.getvalue()
        if path is not None:
            pathlib.Path(path).write_text(text)
        return text

    def payload(self) -> dict:
        """Rows + stats as a fresh JSON-safe dict (what ``to_json``
        renders)."""
        return {"stats": dict(vars(self.stats)),
                "rows": [row.to_dict() for row in self.rows]}

    def to_json(self, path: str | pathlib.Path | None = None) -> str:
        """Render rows + stats as JSON; optionally write to ``path``."""
        text = json.dumps(self.payload(), indent=1, sort_keys=True)
        if path is not None:
            pathlib.Path(path).write_text(text)
        return text

    def format(self, title: str | None = None,
               top: int | None = None) -> str:
        """Aligned text table, best cells first."""
        rows = self.sorted_rows()
        if top is not None:
            rows = rows[:top]
        body = [
            [r.scheme, r.cluster, r.model, r.p, r.d, r.w, r.tp,
             r.num_microbatches, r.microbatch_size,
             None if r.oom else f"{r.throughput:.2f}",
             ("" if r.sync_overlap is None
              else f"{r.sync_overlap * 100:.0f}%"),
             "*" if r.cached else ""]
            for r in rows
        ]
        return format_table(
            ["scheme", "cluster", "model", "P", "D", "W", "TP", "B",
             "mb", "seq/s", "sync-ovl", "hit"],
            body, title=title,
        )
