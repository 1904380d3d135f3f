"""Advisor answers — one path for the CLI and the server.

An advise query is a ranked one-batch sweep: :func:`advise_requests`
lowers it to a :class:`~repro.sweep.spec.SweepSpec` (the Sec. 5.3
search: schemes × (P, D) layouts × Hanayo waves under B = P) and
expands it; :func:`advise_answer` measures the grid in one ``measure``
call and ranks the assembled table.  A served sweep is
:func:`~repro.sweep.engine.run_sweep` over the grid ``repro sweep``
builds from the same request.  ``measure`` defaults to the
engine's harness; the server passes its micro-batcher's submit method,
whose lanes are bit-identical, so served and CLI answers are the same
bytes.  The simulator (NumPy) loads with the first measurement.
"""

from __future__ import annotations

from ..analysis.report import format_table
from ..cluster.presets import get_cluster
from ..errors import ConfigError
from ..models.zoo import MODELS
from ..sweep.engine import (
    assemble_table,
    evaluate_unit_requests,
    run_sweep,
    spec_jobs,
)
from ..sweep.spec import (
    SEARCH_SCHEMES,
    SWEEP_REQUEST,
    SweepPoint,
    SweepSpec,
    decode_request,
    layouts_for,
)
from .codec import CODEC_VERSION, AdviseQuery

#: an advise row: the projection of a sweep row onto these columns
ADVISE_FIELDS = ("scheme", "p", "d", "tp", "w", "seq_per_s", "oom",
                 "statically_pruned")


def advise_requests(query: AdviseQuery) -> tuple[SweepSpec, list[SweepPoint]]:
    """Lower a query to its one-batch sweep and expand it.

    Layouts are ``(P, D, TP)`` triples filling ``devices / tp``, kept
    to ``query.dp`` widths when given; :class:`ConfigError` when none
    fits.
    """
    layouts = tuple(
        (p, d, query.tp) for p, d in layouts_for(query.devices // query.tp)
        if query.dp is None or d in query.dp
    )
    if not layouts:
        raise ConfigError(
            f"no (P, D) layout fits {query.devices} devices with "
            f"--tp {query.tp}"
            + (f" --dp {list(query.dp)}" if query.dp else "")
        )
    spec = SweepSpec(
        schemes=SEARCH_SCHEMES,
        clusters=(get_cluster(query.cluster, query.devices),),
        models=(MODELS[query.model](),),
        layouts=layouts,
        total_batches=(query.batch,),
        capacity_bytes=query.capacity_bytes,
        contention=query.contention,
    )
    return spec, spec.expand()


def advise_answer(query: AdviseQuery, measure=None) -> dict:
    """The full answer payload for one advise query.

    The grid is one ``measure`` call (one micro-batcher submission, so
    one coalescing window); rows are ranked by throughput — OOM cells
    last — with a structural tie-break, truncated to ``query.top``.
    """
    spec, points = advise_requests(query)
    jobs = spec_jobs(spec, enumerate(points))
    records = {index: (record, False)
               for index, record in evaluate_unit_requests(jobs, measure)}
    table = assemble_table(spec, points, records)
    ranked = sorted(table, key=lambda r: (
        -r.throughput, r.scheme, r.p, r.d, r.tp, r.w))
    return {
        "kind": "advise",
        "version": CODEC_VERSION,
        "query": query.to_payload(),
        "rows": [{f: getattr(row, f) for f in ADVISE_FIELDS}
                 for row in ranked[: query.top]],
        "considered": len(table),
    }


def format_advise(payload: dict) -> str:
    """Render an advise answer payload as the CLI table."""
    query = payload["query"]
    body = [
        [r["scheme"], r["p"], r["d"], r["tp"], r["w"],
         None if r["oom"] else f"{r['seq_per_s']:.2f}"]
        for r in payload["rows"]
    ]
    title = (f"{query['model']} on cluster {query['cluster']} "
             f"({query['devices']} devices), batch {query['batch']}")
    if query.get("capacity_gib") is not None:
        title += f", capacity {query['capacity_gib']:g} GiB"
    return format_table(["scheme", "P", "D", "TP", "W", "seq/s"],
                        body, title=title)


# -- sweep queries ------------------------------------------------------------


def sweep_answer(payload, measure=None, progress=None) -> dict:
    """Evaluate a sweep request (:data:`~repro.sweep.spec.SWEEP_REQUEST`)
    on :meth:`SweepSpec.from_payload`'s grid, the one ``repro sweep``
    runs: :func:`~repro.sweep.engine.run_sweep` without a cache, one
    ``measure`` call and one ``progress(done, total)`` (a streamed frame
    on the server) per work unit.  ``query`` echoes the request
    normalized; ``result`` is ``SweepTable.payload``."""
    query = decode_request(payload, SWEEP_REQUEST)
    table = run_sweep(SweepSpec.from_payload(query), measure=measure,
                      progress=progress)
    return {
        "kind": "sweep",
        "version": CODEC_VERSION,
        "query": query,
        "result": table.payload(),
    }
