"""The one JSON codec for advisor queries and answers.

Every surface that speaks about queries — ``repro advise --json``, the
HTTP server's request bodies and responses, the ``repro query`` client,
the load benchmark — goes through this module, so a served answer and a
batch-CLI answer for the same query are **the same bytes**: both sides
serialize with :func:`dumps_canonical` (sorted keys, no whitespace,
trailing newline) over payloads produced by the same folding code in
:mod:`repro.serve.queries`.

Queries are decoded strictly, by
:func:`~repro.sweep.spec.decode_request` over the request field tables
of :mod:`repro.sweep.spec`: unknown fields, wrong types and
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
from ..sweep.spec import ADVISE_REQUEST, decode_request

#: bump when query or answer payload layout changes; a client/server
#: version mismatch then fails loudly instead of mis-parsing
CODEC_VERSION = 2


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


@dataclass(frozen=True)
class AdviseQuery:
    """One "best config for (cluster, model, batch, capacity)" question.

    Its fields are :data:`~repro.sweep.spec.ADVISE_REQUEST`'s rows, the
    sweep request's rows at one value each plus what advise adds: the
    ``dp`` filter and ``top``.  The canonical form is **normalized** —
    ``dp`` sorted and deduplicated — so equivalent questions hash to
    one :func:`query_key` and single-flight can merge them.
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
    def from_payload(cls, payload) -> "AdviseQuery":
        """Strict decode (CLI arguments and served bodies alike)."""
        query = decode_request(payload, ADVISE_REQUEST)
        if query["devices"] % query["tp"]:
            raise ConfigError(
                f"query field 'tp': tensor-parallel degree {query['tp']} "
                f"must divide the device count {query['devices']}")
        if query["dp"] is not None:
            query["dp"] = tuple(sorted(set(query["dp"])))
        return cls(**query)

    def to_payload(self) -> dict:
        payload = {row.name: getattr(self, row.name)
                   for row in ADVISE_REQUEST}
        if self.dp is not None:
            payload["dp"] = list(self.dp)
        return payload

    @property
    def capacity_bytes(self) -> int | None:
        return (None if self.capacity_gib is None
                else int(self.capacity_gib * 2**30))
