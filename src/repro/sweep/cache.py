"""Deterministic on-disk result cache for sweep measurements.

Every measurement is keyed by a SHA-256 **content hash** of everything
that determines its outcome: the scheme, a canonical fingerprint of the
cluster (device model + every interconnect link), a fingerprint of the
model spec, the shape ``(P, D, W, B, microbatch size)``, and the
measurement options.  The hash is computed from a canonical JSON
serialisation, so it is stable across processes, interpreter restarts
and ``PYTHONHASHSEED`` values — two hosts sweeping the same grid hit
the same keys.  The part that does not vary across one grid (version,
code, cluster, model, options) is digested once as a
:func:`key_prefix`; a cell hashes only that digest plus its shape.

Records live in one **append-only JSONL log per cache generation**
(``results-v<CACHE_VERSION>-<code fingerprint prefix>.jsonl`` under the
cache root) — the shape of the traffic, which is write-once, read-all.
A ``put`` is a single ``write(2)`` of one complete line on an
``O_APPEND`` descriptor, so finished cells survive an interrupted sweep
and concurrent appenders interleave at line granularity; a ``get``
answers from an in-memory index built by one read of the log.  Lines
that do not parse, or carry the wrong version or schema, are skipped —
they read as misses and are superseded by the recomputed line (later
lines win), so a corrupted cache heals itself on the next run.  A
source edit changes the fingerprint and therefore every key; it also
starts a new log file, so stale generations are never parsed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import threading

from ..cluster.presets import Cluster
from ..models.spec import ModelSpec
from ..analysis.result import ThroughputResult

#: bump when record layout or fingerprint semantics change; old entries
#: then read as misses instead of deserialising wrongly
#: (2: memory-as-a-resource — records carry ``statically_pruned``, keys
#: carry ``capacity_bytes``, OOM peaks are abort-time watermarks;
#: 3: collectives-in-the-IR — keys carry ``tp`` and the ``overlap``
#: mode instead of the retired ``dp_overlap`` constant, records carry
#: the measured sync/overlap columns;
#: 4: lowered-plan era — measurements execute ``ExecutablePlan``\ s
#: through the plan cache and the fingerprint set grew the hybrid
#: harness + plan-cache sources, so pre-lowering entries are retired
#: wholesale;
#: 5: schedule synthesis — the reorder compile path joins ``actions/``
#: and the fingerprint set grows ``synthesis/`` (searched orderings
#: feed simulated measurements), retiring pre-synthesis entries)
#: 6: batched execution — sweep cells sharing a structure are measured
#: through the lockstep stepper (``runtime/batched.py``), a new code
#: path between cached records and the event core
#: 7: cross-structure batching — hybrid TP > 1 units and
#: contention-mode lanes execute through the lockstep stepper, and
#: batch units span congruent structures (cross-model lanes), all new
#: code paths between cached records and the event core
#: 8: contention as a per-request axis — keys carry ``contention``
#: 9: the result log — records move from one file per key to one
#: append-only JSONL log per generation, keys become ``sha256(prefix
#: digest + shape)``, and the reference interpreter leaves the code
#: fingerprint
CACHE_VERSION = 9

#: package-relative sources whose behaviour determines a measurement;
#: their content is hashed into every cache key so editing the cost
#: model, a schedule generator, or the *execution semantics* — the
#: action compiler / program IR / **plan lowering** under ``actions/``
#: and the event-driven core under ``runtime/`` (``events.py``,
#: ``batched.py``, ``simulator.py``) — invalidates old entries
#: automatically instead of serving stale numbers.  Directories are
#: hashed recursively, so new execution modules (e.g.
#: ``actions/lowering.py``) are covered the day they land.  The record
#: *type* (``analysis/result.py``) is deliberately absent: it computes
#: nothing, and its layout is governed by :data:`CACHE_VERSION`.
_MEASUREMENT_SOURCES = (
    "config.py",
    "types.py",
    "models",
    "cluster",
    "schedules",
    "actions",
    "runtime",
    "analysis/throughput.py",
    "analysis/hybrid.py",
    "analysis/plans.py",
    "synthesis",
)


def fingerprint_files() -> list[pathlib.Path]:
    """Every source file folded into :func:`code_fingerprint`, sorted.

    Exposed so tests can pin coverage: a measurement-semantics module
    (e.g. ``actions/program.py`` or ``runtime/events.py``) missing from
    this list would mean stale caches survive a semantics change.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    files: list[pathlib.Path] = []
    for target in _MEASUREMENT_SOURCES:
        path = root / target
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the source of everything that feeds a measurement.

    Computed once per process from the installed package's files, so a
    durable cache (e.g. ``benchmarks/.sweep_cache``) turns into misses
    — not silently stale hits — the moment simulator, execution-IR or
    cost-model code changes.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for source in fingerprint_files():
        label = (source.relative_to(root) if source.is_relative_to(root)
                 else source.name)
        digest.update(str(label).encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def model_fingerprint(model: ModelSpec) -> dict:
    """All architecture fields that feed the cost model."""
    return dataclasses.asdict(model)


def cluster_fingerprint(cluster: Cluster) -> dict:
    """Device model plus the full canonical link list.

    Two clusters with the same name but different topologies (or device
    memory) must never share cache entries.
    """
    return {
        "name": cluster.name,
        "gpus_per_node": cluster.gpus_per_node,
        "num_devices": cluster.num_devices,
        "device": dataclasses.asdict(cluster.device),
        "links": [
            [a, b, link.name, link.bandwidth, link.latency]
            for a, b, link in cluster.topology.links()
        ],
    }


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def key_prefix(
    cluster: Cluster,
    model: ModelSpec,
    *,
    overlap: str = "simulated",
    enforce_memory: bool = True,
    capacity_bytes: int | None = None,
    contention: bool = False,
) -> str:
    """Digest of everything in a key that one grid's cells share.

    Cache version, code fingerprint, the cluster's full link list, the
    model and the measurement options are the expensive part of a key
    and do not vary across the cells of one (cluster, model) grid, so
    bulk callers (the sweep engine) digest them once and pass the
    result to :func:`cache_key` as ``prefix``.
    """
    return _digest({
        "version": CACHE_VERSION,
        "code": code_fingerprint(),
        "cluster": cluster_fingerprint(cluster),
        "model": model_fingerprint(model),
        "options": {
            "overlap": overlap,
            "enforce_memory": enforce_memory,
            "capacity_bytes": capacity_bytes,
            "contention": contention,
        },
    })


def cache_key(
    scheme: str,
    cluster: Cluster,
    model: ModelSpec,
    *,
    p: int,
    d: int,
    w: int,
    num_microbatches: int,
    microbatch_size: int,
    tp: int = 1,
    overlap: str = "simulated",
    enforce_memory: bool = True,
    capacity_bytes: int | None = None,
    contention: bool = False,
    prefix: str | None = None,
) -> str:
    """64-hex-char content hash identifying one measurement.

    ``prefix`` accepts the precomputed :func:`key_prefix` of
    ``(cluster, model, options)``; those arguments are then not read.

    >>> from repro.cluster import make_fc
    >>> from repro.models import tiny_model
    >>> shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
    >>> k1 = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
    >>> k2 = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
    >>> k1 == k2 and len(k1) == 64
    True
    >>> k1 != cache_key("dapple", make_fc(4), tiny_model(), **shape)
    True
    """
    if prefix is None:
        prefix = key_prefix(
            cluster, model, overlap=overlap, enforce_memory=enforce_memory,
            capacity_bytes=capacity_bytes, contention=contention)
    return _digest([prefix, scheme, p, d, w, tp, num_microbatches,
                    microbatch_size])


def result_to_record(result: ThroughputResult) -> dict:
    """Flatten a :class:`ThroughputResult` to a JSON-safe dict."""
    cfg = result.config
    return {
        "scheme": cfg.scheme,
        "p": cfg.num_devices,
        "b": cfg.num_microbatches,
        "w": cfg.num_waves,
        "d": cfg.data_parallel,
        "microbatch_size": cfg.microbatch_size,
        "cluster_name": result.cluster_name,
        "model_name": result.model_name,
        "seq_per_s": result.seq_per_s,
        "bubble_ratio": result.bubble_ratio,
        "peak_mem_bytes": result.peak_mem_bytes,
        "iteration_s": result.iteration_s,
        "oom_device": result.oom_device,
        "statically_pruned": result.statically_pruned,
        "sync_s": result.sync_s,
        "sync_exposed_s": result.sync_exposed_s,
        "sync_overlap": result.sync_overlap,
        "sync_model_s": result.sync_model_s,
        "overlap_mode": result.overlap_mode,
    }


def infeasible_record(error: str) -> dict:
    """Record for a cell ``measure_throughput`` rejected outright."""
    return {"infeasible": True, "error": error}


class ResultCache:
    """A directory holding one append-only JSONL log of records.

    The log of the current generation — this :data:`CACHE_VERSION` and
    this :func:`code_fingerprint` — is the only file ever parsed; logs
    of other generations (and the per-key ``*.json`` files of versions
    up to 8) just sit there until :meth:`clear`.

    Safe for concurrent use from many threads (index, descriptor and
    the hit/miss/write counters are maintained under one lock, so the
    serving layer can report them consistently) and from many
    processes: every ``put`` is one ``O_APPEND`` write of one complete
    line, so appenders interleave at line granularity.  A process does
    not see lines another process appends after its own first read — a
    miss there recomputes a content-addressed, bit-identical record.
    """

    def __init__(self, root: str | os.PathLike):
        self._lock = threading.Lock()
        self._index: dict[str, dict] | None = None  # built by first read
        self._fd: int | None = None                 # opened by first put
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / (
            f"results-v{CACHE_VERSION}-{code_fingerprint()[:16]}.jsonl")

    def _records(self) -> dict[str, dict]:
        """The key → record index (call with the lock held).

        Built by one read of the log.  A line that does not parse, is
        not an entry of this version, or lacks a string key or a dict
        record is skipped; of several lines for one key the last wins.
        """
        if self._index is None:
            index: dict[str, dict] = {}
            try:
                lines = self.path.read_bytes().splitlines()
            except FileNotFoundError:
                lines = []
            for line in lines:
                try:
                    entry = json.loads(line)
                except ValueError:      # garbage, or a torn write
                    continue
                if (isinstance(entry, dict)
                        and entry.get("version") == CACHE_VERSION
                        and isinstance(entry.get("key"), str)
                        and isinstance(entry.get("record"), dict)):
                    index[entry["key"]] = entry["record"]
            self._index = index
        return self._index

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or ``None`` on miss."""
        with self._lock:
            record = self._records().get(key)
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        """Persist ``record`` under ``key``: one appended line, written
        at once, so an interrupted sweep keeps every finished cell."""
        entry = {"key": key, "record": record, "version": CACHE_VERSION}
        data = json.dumps(entry, separators=(",", ":")).encode() + b"\n"
        with self._lock:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
                size = os.fstat(self._fd).st_size
                if size and os.pread(self._fd, 1, size - 1) != b"\n":
                    # an interrupted writer's torn tail: end its line so
                    # it cannot swallow ours
                    data = b"\n" + data
            view = memoryview(data)
            while view:     # one write(2), barring a short write
                view = view[os.write(self._fd, view):]
            if self._index is not None:
                self._index[key] = record
            self.writes += 1

    def close(self) -> None:
        """Release the log descriptor (a later ``put`` reopens it)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    __del__ = close

    def __len__(self) -> int:
        with self._lock:
            return len(self._records())

    def clear(self) -> int:
        """Delete every generation's log and any per-key files older
        versions left behind; returns the number of files removed."""
        self.close()
        with self._lock:
            self._index = {}
            stale = [*self.root.glob("results-*.jsonl"),
                     *self.root.glob("*.json")]
            for path in stale:
                path.unlink(missing_ok=True)
        return len(stale)

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
