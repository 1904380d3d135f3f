"""repro.sweep — the parallel, cached configuration-sweep engine.

The paper's evaluation (Figs. 9–12) is thousands of calls into one
function, ``measure_throughput``, over a grid of schemes, clusters,
models, ``(P, D)`` layouts, wave counts and batch sizes.  This package
makes that grid a first-class workload:

* :class:`SweepSpec` declares the grid; expansion applies the Sec. 5.3
  fairness rule (:func:`split_batch`) and Hanayo's wave feasibility.
* :func:`run_sweep` executes it — misses fan out over a
  ``multiprocessing`` pool, and every result lands in a
  :class:`ResultCache` keyed by a content hash of scheme + cluster +
  model + shape, so re-runs and overlapping benchmarks are near-free.
* :class:`SweepTable` holds the results with best-cell queries and
  CSV/JSON export; ``repro sweep`` exposes the whole thing on the CLI.

End to end, on a tiny model so it runs anywhere::

    >>> from repro.cluster import make_fc
    >>> from repro.models import tiny_model
    >>> from repro.sweep import SweepSpec, run_sweep
    >>> spec = SweepSpec(schemes=("gpipe", "dapple"),
    ...                  clusters=(make_fc(4),), models=(tiny_model(),),
    ...                  layouts=((4, 1), (2, 2)), total_batches=(8,))
    >>> table = run_sweep(spec)
    >>> table.stats.describe()
    '4 cells: 4 computed, 0 cached, 0 infeasible'
    >>> sorted({(r.scheme, r.p, r.d) for r in table})
    [('dapple', 2, 2), ('dapple', 4, 1), ('gpipe', 2, 2), ('gpipe', 4, 1)]
    >>> best = table.best(scheme="dapple")
    >>> best.throughput > 0
    True
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CACHE_VERSION", "ResultCache", "cache_key", "cluster_fingerprint",
        "code_fingerprint", "fingerprint_files", "key_prefix",
        "model_fingerprint", "result_to_record",
    ),
    "engine": ("point_key", "run_sweep"),
    "spec": (
        "BIDIRECTIONAL_SCHEMES", "DEFAULT_WAVES", "SweepPoint", "SweepSpec",
        "feasible_waves", "split_batch",
    ),
    "table": ("EXPORT_FIELDS", "SweepRow", "SweepStats", "SweepTable"),
})
