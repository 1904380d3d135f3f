"""Process entry points: ``python -m repro`` and the ``repro`` script."""

import gc
import sys

from .cli import main


def _freeze_survivors(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: what a full collection kept is immortal.

    The plan cache retains the IR it builds by design (~400 k tracked
    objects by the end of a cold sweep), so every later generation-2
    pass would re-walk all of it to free nothing.  Freezing when one
    *stops* means each survivor is walked by at most one full pass.
    """
    if phase == "stop" and info["generation"] == 2:
        gc.freeze()


def run() -> int:
    """``main()`` under the freeze-on-full-collection policy, then
    ``gc.freeze()``: finalization otherwise spends ~0.45 s after a cold
    sweep on full GC passes over the plan cache's IR graph, to free
    memory the OS reclaims anyway.  ``atexit`` and stream flushes still
    run.  Never inside ``main()``, which tests and embedders call
    in-process — and not for ``serve``: entries the plan cache evicts
    are cyclic garbage only the collector can free, so a long-lived
    daemon must keep collecting them."""
    if sys.argv[1:2] != ["serve"]:
        gc.callbacks.append(_freeze_survivors)
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
