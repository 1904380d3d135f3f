"""Result-level diff of two source trees (stdlib only until ``repro``
loads).

``dump`` writes the record of every cell of a sweep grid — the
``dumps_canonical`` bytes of the ``result_to_record`` dict a sweep
caches, one line per cell, in the grid's expansion order — measured
through ``run_sweep`` inline and without a cache, by the ``repro`` of
the tree ``--root`` names (default: this checkout).  ``diff`` compares
two dumps line by line, so a change that must keep every result shows
"0 mismatching records"::

    python tools/dump_diff.py dump before.jsonl --root /path/to/parent
    python tools/dump_diff.py dump after.jsonl
    python tools/dump_diff.py diff before.jsonl after.jsonl

``--grid sweep_cold`` (the default) is the 944-cell grid of the
``sweep_cold`` benchmark workload, ``--grid small`` an 8-cell one.
``diff`` prints each mismatching record (its line, cell and differing
fields) and a count, and exits 1 if any record differs or the dumps'
lengths do.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: sweep requests (``SweepSpec.from_payload``) by name
GRIDS = {
    "sweep_cold": {
        "schemes": ["gpipe", "dapple", "interleaved", "gems", "chimera",
                    "chimera-wave", "hanayo"],
        "cluster": ["PC", "FC", "TACC", "TC"], "models": ["bert", "gpt"],
        "devices": 8, "batches": [8, 16, 32, 64], "waves": [1, 2, 4, 8],
        "layouts": "8x1,4x2,2x4"},
    "small": {
        "schemes": ["dapple", "hanayo"], "cluster": ["FC", "TACC"],
        "models": ["bert"], "devices": 8, "batches": [16], "waves": [2],
        "layouts": "8x1,4x2"},
}
#: the record fields that name a cell
CELL = ("scheme", "cluster_name", "model_name", "p", "d", "b", "w",
        "microbatch_size")


def dump(out: Path, grid: str, root: Path = ROOT) -> int:
    """Write ``grid``'s records, measured by ``root``'s ``repro``, to
    ``out``; return the record count."""
    sys.path.insert(0, str(root / "src"))
    from repro.serve.codec import dumps_canonical
    from repro.sweep.engine import run_sweep
    from repro.sweep.spec import SweepSpec

    table = run_sweep(SweepSpec.from_payload(GRIDS[grid]))
    out.write_bytes(b"".join(dumps_canonical(row.record)
                             for row in table.rows))
    return len(table.rows)


def diff(a: Path, b: Path) -> list[str]:
    """One line per record that differs between dumps ``a`` and ``b``."""
    found = []
    for n, (x, y) in enumerate(zip_longest(a.read_bytes().splitlines(),
                                           b.read_bytes().splitlines()), 1):
        if x == y:
            continue
        if x is None or y is None:
            found.append(f"line {n}: only in {a if y is None else b}")
            continue
        x, y = json.loads(x), json.loads(y)
        cell = " ".join(f"{k}={x.get(k)}" for k in CELL)
        fields = sorted(k for k in x.keys() | y.keys()
                        if x.get(k) != y.get(k))
        found.append(f"line {n}: {cell}: " + ", ".join(
            f"{k} {x.get(k)!r} != {y.get(k)!r}" for k in fields))
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write a grid's records")
    d.add_argument("out", type=Path)
    d.add_argument("--grid", choices=sorted(GRIDS), default="sweep_cold")
    d.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose src/ measures the grid")
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "dump":
        n = dump(args.out, args.grid, args.root)
        print(f"wrote {n} records to {args.out}")
        return 0
    found = diff(args.a, args.b)
    for line in found:
        print(line)
    print(f"{len(found)} mismatching records")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
