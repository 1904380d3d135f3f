"""Advisor-as-a-service: warm-cache concurrent query serving.

``repro advise``/``sweep`` are batch CLIs that pay process startup and
cold caches on every call.  This package keeps the expensive state hot
— the structural :func:`~repro.analysis.plan_cache`, its bound-plan
re-timings, the batched runtime's structural passes — in one long-lived
process and answers what-if queries over HTTP:

* :mod:`.codec` — one JSON request/answer codec shared by the server,
  the ``repro query`` client and ``repro advise --json``, so batch and
  served answers are diffable byte for byte;
* :mod:`.queries` — query expansion + answer folding, shared by the
  batch CLI and the server (parity by construction);
* :mod:`.batcher` — the continuous micro-batcher: concurrent in-flight
  queries' measurement cells coalesce into single
  ``measure_hybrid_throughput_batch`` calls, so the serving layer
  inherits the lockstep ``PlanBatch`` speedups instead of re-deriving
  them;
* :mod:`.singleflight` — identical concurrent queries execute once and
  share the answer;
* :mod:`.server` — the stdlib ``ThreadingHTTPServer`` daemon with
  streamed sweep progress and graceful drain.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codec": ("AdviseQuery", "dumps_canonical", "query_key"),
    "queries": ("advise_answer", "format_advise", "sweep_answer"),
    "server": ("AdvisorServer", "serve_until_signalled"),
})
