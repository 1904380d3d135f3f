"""Run ``repro ARGS`` in this process and, at exit, write every module
it loaded to ``OUT``, one name a line.

    python tests/support/loaded_modules.py OUT sweep --cache DIR ...

``python -X importtime`` logs ``import`` statements only, not modules
loaded through ``importlib.import_module`` — which is how every lazy
package export (:mod:`repro._lazy`) loads its submodule.  ``sys.modules``
at exit holds both.
"""

import atexit
import runpy
import sys


def _dump(path: str) -> None:
    with open(path, "w") as out:
        out.write("".join(f"{name}\n" for name in sorted(sys.modules)))


if __name__ == "__main__":
    atexit.register(_dump, sys.argv.pop(1))
    sys.argv[0] = "repro"
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
