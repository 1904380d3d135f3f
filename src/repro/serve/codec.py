"""The one JSON codec for advisor queries and answers.

Every surface that speaks about queries — ``repro advise --json``, the
HTTP server's request bodies and responses, the ``repro query`` client,
the load benchmark — goes through this module, so a served answer and a
batch-CLI answer for the same query are **the same bytes**: both sides
serialize with :func:`dumps_canonical` (sorted keys, no whitespace,
trailing newline) over payloads produced by the same folding code in
:mod:`repro.serve.queries`.

Queries are validated strictly: unknown fields, wrong types and
out-of-range values raise :class:`~repro.errors.ConfigError` with a
message naming the offending field, which the server maps to a 400.
:func:`query_key` content-hashes a canonical query for the
single-flight registry — two requests with equal keys are *the same
question* and may share one execution's answer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..errors import ConfigError
from ..models.zoo import MODELS

#: bump when query or answer payload layout changes; a client/server
#: version mismatch then fails loudly instead of mis-parsing
CODEC_VERSION = 2

#: model names a query may reference
KNOWN_MODELS = tuple(MODELS)

#: cluster presets a query may reference
KNOWN_CLUSTERS = ("PC", "FC", "TACC", "TC")

#: the configuration-search scheme set (paper Sec. 5.3)
ADVISE_SCHEMES = ("gpipe", "dapple", "chimera-wave", "hanayo")


def dumps_canonical(payload) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, one trailing newline.

    Two payloads with equal content always serialize to equal bytes, so
    answers can be diffed (and deduplicated) byte for byte.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def query_key(kind: str, query) -> str:
    """Content hash identifying one query for single-flight dedup."""
    body = dumps_canonical({"kind": kind, "version": CODEC_VERSION,
                            "query": query.to_payload()})
    return hashlib.sha256(body).hexdigest()


_MISSING = object()


def _require(payload: dict, field: str, types, *, default=_MISSING):
    value = payload.get(field, default)
    if value is _MISSING:
        raise ConfigError(f"query is missing required field {field!r}")
    if value is not None and not isinstance(value, types):
        raise ConfigError(
            f"query field {field!r} has type {type(value).__name__}, "
            f"expected {types}"
        )
    # bool is an int subclass; never accept True where a count is meant
    if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        raise ConfigError(f"query field {field!r} must not be a boolean")
    return value


def _check_known(payload: dict, known: tuple[str, ...]) -> None:
    extra = sorted(set(payload) - set(known))
    if extra:
        raise ConfigError(
            f"unknown query field(s) {extra}; expected a subset of "
            f"{sorted(known)}"
        )


def _int_tuple(value, field: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value or any(
            isinstance(v, bool) or not isinstance(v, int) or v < 1
            for v in value):
        raise ConfigError(
            f"query field {field!r} must be a non-empty list of "
            f"positive integers, got {value!r}"
        )
    return tuple(value)


@dataclass(frozen=True)
class AdviseQuery:
    """One "best config for (cluster, model, batch, capacity)" question.

    The canonical form is **normalized** — ``dp`` sorted and
    deduplicated — so equivalent questions hash to one
    :func:`query_key` and single-flight can merge them.
    """

    cluster: str
    model: str
    devices: int
    batch: int
    tp: int = 1
    dp: tuple[int, ...] | None = None
    top: int = 10
    capacity_gib: float | None = None
    contention: bool = False

    @classmethod
    def make(cls, cluster: str, model: str, devices: int, batch: int,
             tp: int = 1, dp=None, top: int = 10,
             capacity_gib: float | None = None,
             contention: bool = False) -> "AdviseQuery":
        """Validating, normalizing constructor (CLI args and payloads)."""
        cluster = str(cluster).upper()
        if cluster not in KNOWN_CLUSTERS:
            raise ConfigError(
                f"unknown cluster {cluster!r}; expected one of "
                f"{list(KNOWN_CLUSTERS)}"
            )
        if model not in KNOWN_MODELS:
            raise ConfigError(
                f"unknown model {model!r}; expected one of "
                f"{list(KNOWN_MODELS)}"
            )
        for name, value in (("devices", devices), ("batch", batch),
                            ("tp", tp), ("top", top)):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ConfigError(
                    f"query field {name!r} must be a positive integer, "
                    f"got {value!r}"
                )
        if devices % tp:
            raise ConfigError(
                f"tensor-parallel degree {tp} must divide the device "
                f"count {devices}"
            )
        if dp is not None:
            dp = tuple(sorted(set(_int_tuple(dp, "dp"))))
        if capacity_gib is not None:
            if isinstance(capacity_gib, bool) or \
                    not isinstance(capacity_gib, (int, float)) \
                    or capacity_gib <= 0:
                raise ConfigError(
                    f"query field 'capacity_gib' must be a positive "
                    f"number, got {capacity_gib!r}"
                )
            capacity_gib = float(capacity_gib)
        if not isinstance(contention, bool):
            raise ConfigError(
                f"query field 'contention' must be a boolean, "
                f"got {contention!r}"
            )
        return cls(cluster=cluster, model=model, devices=devices,
                   batch=batch, tp=tp, dp=dp, top=top,
                   capacity_gib=capacity_gib, contention=contention)

    @classmethod
    def from_payload(cls, payload) -> "AdviseQuery":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"advise query must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        _check_known(payload, ("cluster", "model", "devices", "batch",
                               "tp", "dp", "top", "capacity_gib",
                               "contention"))
        return cls.make(
            cluster=_require(payload, "cluster", str),
            model=_require(payload, "model", str),
            devices=_require(payload, "devices", int),
            batch=_require(payload, "batch", int),
            tp=_require(payload, "tp", int, default=1),
            dp=_require(payload, "dp", (list, tuple), default=None),
            top=_require(payload, "top", int, default=10),
            capacity_gib=_require(payload, "capacity_gib", (int, float),
                                  default=None),
            contention=_require(payload, "contention", bool,
                                default=False),
        )

    def to_payload(self) -> dict:
        return {
            "cluster": self.cluster,
            "model": self.model,
            "devices": self.devices,
            "batch": self.batch,
            "tp": self.tp,
            "dp": None if self.dp is None else list(self.dp),
            "top": self.top,
            "capacity_gib": self.capacity_gib,
            "contention": self.contention,
        }

    @property
    def capacity_bytes(self) -> int | None:
        return (None if self.capacity_gib is None
                else int(self.capacity_gib * 2**30))


@dataclass(frozen=True)
class SweepQuery:
    """A served multi-cell sweep: a grid, not a single ranking.

    Mirrors the ``repro sweep`` surface (one cluster, many schemes /
    models / batches / TP degrees; layouts default to every (P, D)
    split of ``devices``).  The server streams progress frames while
    the grid executes and closes with the full table payload —
    identical in content to ``repro sweep --json``.
    """

    schemes: tuple[str, ...]
    cluster: str
    models: tuple[str, ...]
    devices: int
    batches: tuple[int, ...]
    tp: tuple[int, ...] = (1,)
    waves: tuple[int, ...] = (1, 2, 4, 8)
    layouts: tuple[tuple[int, ...], ...] | None = None
    capacity_gib: float | None = None
    contention: bool = False

    @classmethod
    def make(cls, schemes, cluster: str, models, devices: int, batches,
             tp=(1,), waves=(1, 2, 4, 8), layouts=None,
             capacity_gib: float | None = None,
             contention: bool = False) -> "SweepQuery":
        from ..config import KNOWN_SCHEMES

        schemes = tuple(schemes)
        if not schemes or any(s not in KNOWN_SCHEMES for s in schemes):
            raise ConfigError(
                f"query field 'schemes' must be a non-empty list drawn "
                f"from {sorted(KNOWN_SCHEMES)}, got {list(schemes)!r}"
            )
        cluster = str(cluster).upper()
        if cluster not in KNOWN_CLUSTERS:
            raise ConfigError(
                f"unknown cluster {cluster!r}; expected one of "
                f"{list(KNOWN_CLUSTERS)}"
            )
        models = tuple(models)
        if not models or any(m not in KNOWN_MODELS for m in models):
            raise ConfigError(
                f"query field 'models' must be a non-empty list drawn "
                f"from {list(KNOWN_MODELS)}, got {list(models)!r}"
            )
        if isinstance(devices, bool) or not isinstance(devices, int) \
                or devices < 2:
            raise ConfigError(
                f"query field 'devices' must be an integer >= 2, "
                f"got {devices!r}"
            )
        if layouts is not None:
            layouts = tuple(tuple(layout) for layout in layouts)
            for layout in layouts:
                if len(layout) not in (2, 3) or any(
                        isinstance(v, bool) or not isinstance(v, int)
                        or v < 1 for v in layout):
                    raise ConfigError(
                        f"bad layout {list(layout)!r}; want [P, D] or "
                        f"[P, D, TP] of positive integers"
                    )
        if capacity_gib is not None:
            if isinstance(capacity_gib, bool) or \
                    not isinstance(capacity_gib, (int, float)) \
                    or capacity_gib <= 0:
                raise ConfigError(
                    f"query field 'capacity_gib' must be a positive "
                    f"number, got {capacity_gib!r}"
                )
            capacity_gib = float(capacity_gib)
        if not isinstance(contention, bool):
            raise ConfigError(
                f"query field 'contention' must be a boolean, "
                f"got {contention!r}"
            )
        return cls(
            schemes=schemes, cluster=cluster, models=models,
            devices=devices, batches=_int_tuple(batches, "batches"),
            tp=tuple(sorted(set(_int_tuple(tp, "tp")))),
            waves=_int_tuple(waves, "waves"), layouts=layouts,
            capacity_gib=capacity_gib, contention=contention,
        )

    @classmethod
    def from_payload(cls, payload) -> "SweepQuery":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"sweep query must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        _check_known(payload, ("schemes", "cluster", "models", "devices",
                               "batches", "tp", "waves", "layouts",
                               "capacity_gib", "contention"))
        return cls.make(
            schemes=_require(payload, "schemes", (list, tuple)),
            cluster=_require(payload, "cluster", str),
            models=_require(payload, "models", (list, tuple)),
            devices=_require(payload, "devices", int),
            batches=_require(payload, "batches", (list, tuple)),
            tp=_require(payload, "tp", (list, tuple), default=[1]),
            waves=_require(payload, "waves", (list, tuple),
                           default=[1, 2, 4, 8]),
            layouts=_require(payload, "layouts", (list, tuple),
                             default=None),
            capacity_gib=_require(payload, "capacity_gib", (int, float),
                                  default=None),
            contention=_require(payload, "contention", bool,
                                default=False),
        )

    def to_payload(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "cluster": self.cluster,
            "models": list(self.models),
            "devices": self.devices,
            "batches": list(self.batches),
            "tp": list(self.tp),
            "waves": list(self.waves),
            "layouts": (None if self.layouts is None
                        else [list(layout) for layout in self.layouts]),
            "capacity_gib": self.capacity_gib,
            "contention": self.contention,
        }

    @property
    def capacity_bytes(self) -> int | None:
        return (None if self.capacity_gib is None
                else int(self.capacity_gib * 2**30))
