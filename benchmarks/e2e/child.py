"""Traced stand-in for ``python -m repro <argv>`` (CLI workloads only).

The traced run of ``cold_cli`` / ``sweep_cold`` / ``sweep_warm``
launches this instead of ``python -m repro``: it times ``import
repro.cli`` (what every command pays before its first line runs),
installs the span wrappers lazily — modules the command imports later
are wrapped when *it* imports them, and those imports are spans too —
calls ``repro.cli.main(argv)`` and leaves its spans and counters in the
file named by ``--spans`` for the parent to adopt.  End-to-end numbers
never come from here.

Usage: ``child.py --spans OUT.json -- <repro argv...>``
"""

from __future__ import annotations

import json
import os
import sys
import time

_START = time.perf_counter()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, repro_argv = argv[1], argv[3:]

    from tracer import Tracer, program_counters

    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install(lazy=True)
    try:
        code = repro.cli.main(repro_argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        payload = {
            "spans": tracer.export(os.getpid()),
            "counters": {**tracer.counters, **program_counters()},
            "modules_loaded": len(sys.modules),
        }
        with open(out_path, "w") as handle:
            json.dump(payload, handle)
            # second line, written last: wall of this body including the
            # dump above, so the parent does not book it as interpreter exit
            handle.write("\n%r" % (time.perf_counter() - _START))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
