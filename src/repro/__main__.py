"""Process entry points: ``python -m repro`` and the ``repro`` script."""

import gc

from .cli import main


def run() -> int:
    """``main()``, then ``gc.freeze()``: finalization otherwise spends
    ~0.45 s after a cold sweep on full GC passes over the plan cache's
    IR graph, to free memory the OS reclaims anyway.  ``atexit`` and
    stream flushes still run.  Never inside ``main()``, which tests and
    embedders call in-process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
