"""Deterministic on-disk result cache for sweep measurements.

Every measurement is keyed by a SHA-256 **content hash** of everything
that determines its outcome: the scheme, a canonical fingerprint of the
cluster (device model + every interconnect link), a fingerprint of the
model spec, the shape ``(P, D, W, B, microbatch size)``, and the
measurement options.  The hash is computed from a canonical JSON
serialisation, so it is stable across processes, interpreter restarts
and ``PYTHONHASHSEED`` values — two hosts sweeping the same grid hit
the same keys.

Records are one JSON file per key under the cache root.  Writes are
atomic (temp file + ``os.replace``); unreadable or schema-mismatched
entries are treated as misses and deleted, so a corrupted cache heals
itself on the next run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pathlib
import threading

from ..cluster.presets import Cluster
from ..config import PipelineConfig
from ..models.spec import ModelSpec
from ..analysis.throughput import ThroughputResult

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
CACHE_VERSION = 8

#: package-relative sources whose behaviour determines a measurement;
#: their content is hashed into every cache key so editing the cost
#: model, a schedule generator, or the *execution semantics* — the
#: action compiler / program IR / **plan lowering** under ``actions/``
#: and the event-driven core under ``runtime/`` (``events.py``,
#: ``events_ref.py``, ``simulator.py``) — invalidates old entries
#: automatically instead of serving stale numbers.  Directories are
#: hashed recursively, so new execution modules (e.g.
#: ``actions/lowering.py``) are covered the day they land.
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
    cluster_fp: dict | None = None,
    model_fp: dict | None = None,
) -> str:
    """64-hex-char content hash identifying one measurement.

    ``cluster_fp`` / ``model_fp`` accept precomputed fingerprints so
    bulk callers (the sweep engine) hash each cluster and model once
    per run instead of once per grid cell.

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
    payload = {
        "version": CACHE_VERSION,
        "code": code_fingerprint(),
        "scheme": scheme,
        "cluster": cluster_fp if cluster_fp is not None
        else cluster_fingerprint(cluster),
        "model": model_fp if model_fp is not None
        else model_fingerprint(model),
        "shape": {
            "p": p, "d": d, "w": w, "tp": tp,
            "num_microbatches": num_microbatches,
            "microbatch_size": microbatch_size,
        },
        "options": {
            "overlap": overlap,
            "enforce_memory": enforce_memory,
            "capacity_bytes": capacity_bytes,
            "contention": contention,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def record_to_result(record: dict) -> ThroughputResult | None:
    """Rebuild a :class:`ThroughputResult`; ``None`` for infeasible cells."""
    if record.get("infeasible"):
        return None
    cfg = PipelineConfig(
        scheme=record["scheme"],
        num_devices=record["p"],
        num_microbatches=record["b"],
        num_waves=record["w"],
        data_parallel=record["d"],
        microbatch_size=record["microbatch_size"],
    )
    return ThroughputResult(
        config=cfg,
        cluster_name=record["cluster_name"],
        model_name=record["model_name"],
        seq_per_s=record["seq_per_s"],
        bubble_ratio=record["bubble_ratio"],
        peak_mem_bytes=record["peak_mem_bytes"],
        iteration_s=record["iteration_s"],
        oom_device=record["oom_device"],
        statically_pruned=record.get("statically_pruned", False),
        sync_s=record.get("sync_s", 0.0),
        sync_exposed_s=record.get("sync_exposed_s", 0.0),
        sync_overlap=record.get("sync_overlap"),
        sync_model_s=record.get("sync_model_s", 0.0),
        overlap_mode=record.get("overlap_mode", "simulated"),
    )


class ResultCache:
    """A directory of JSON measurement records, one file per key.

    Safe for concurrent use from many threads (and, as before, many
    processes): reads and writes of the record files are already atomic
    at the filesystem level (``os.replace``), temp-file names carry the
    writing thread and a per-process sequence number so two threads
    persisting the same key never collide on a staging file, and the
    hit/miss/write counters are maintained under a lock so the serving
    layer can report them consistently.
    """

    _seq = itertools.count()

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._lock = threading.Lock()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or ``None`` on miss.

        A file that cannot be parsed, carries the wrong version, or was
        stored under a different key is deleted and reported as a miss.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return self._miss()
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return self._miss()
        if (not isinstance(entry, dict)
                or entry.get("version") != CACHE_VERSION
                or entry.get("key") != key
                or not isinstance(entry.get("record"), dict)):
            self._discard(path)
            return self._miss()
        with self._lock:
            self.hits += 1
        return entry["record"]

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, record: dict) -> None:
        """Atomically persist ``record`` under ``key``."""
        path = self.path_for(key)
        tmp = path.with_name(
            f".tmp-{key}-{os.getpid()}-{threading.get_ident()}"
            f"-{next(self._seq)}")
        entry = {"version": CACHE_VERSION, "key": key, "record": record}
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
        os.replace(tmp, path)
        with self._lock:
            self.writes += 1

    def _discard(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for path in self.root.glob("*.json"):
            self._discard(path)
            n += 1
        return n

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
