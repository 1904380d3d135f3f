"""Shared helpers for the figure-reproduction benchmarks.

Every bench writes its "paper vs measured" table to
``benchmarks/results/<name>.txt`` (pytest captures stdout, so files are
the durable record) and also attaches headline numbers to
``benchmark.extra_info`` so they land in the pytest-benchmark JSON.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: shared on-disk cache for the sweep-engine benches (fig09-fig12):
#: overlapping cells — and re-runs — are measured exactly once.  It is
#: one append-only ``results-v*-*.jsonl`` log per simulator version;
#: per-key ``*.json`` files an older checkout left here are never read
#: again (``ResultCache(SWEEP_CACHE_DIR).clear()`` removes them)
SWEEP_CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_SWEEP_CACHE",
                   pathlib.Path(__file__).parent / ".sweep_cache")
)


def sweep_opts() -> dict:
    """``cache``/``workers`` kwargs for the sweep-engine entry points.

    ``REPRO_SWEEP_WORKERS`` (int) turns on multiprocessing fan-out;
    ``REPRO_SWEEP_CACHE`` relocates the cache directory.
    """
    from repro.sweep import ResultCache

    workers = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))
    return {
        "cache": ResultCache(SWEEP_CACHE_DIR),
        "workers": workers if workers > 1 else None,
    }


def write_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo for -s runs.
    print(f"\n{text}\n[written to {path}]")
    return path


def gap(new: float, old: float) -> float:
    """Relative improvement of ``new`` over ``old`` in percent."""
    return (new / old - 1.0) * 100.0
