"""Mutation-kill ledger for the executor modules (stdlib only).

Enumerates every mutation site of the semantic modules with one of six
operators, draws a seeded sample, and runs a test selection against
each mutant in a temporary copy of ``src/`` — one pytest process at a
time, stopping at the first failure, under a per-mutant timeout::

    python tools/mutants.py list                       # the sample
    python tools/mutants.py run tests/test_x.py ...    # run it
    python tools/mutants.py run --only m3f0a2c1 --expect killed tests/...

A mutant's id hashes its module, the stripped text of its source line,
its operator and its rank among the module's sites with that same line
text and operator, so an edit elsewhere in a module renames nothing.
The sample takes, per module, the sites whose seeded hash of the id is
smallest: an added or removed site moves at most one mutant in or out
of it.  ``--only`` refuses an id that no longer names a site (the
ledger is stale).

``run`` first runs the tests once unmutated and stops unless they
pass; it then prints one line per mutant — ``killed`` (pytest exit 1,
a test failed), ``survived`` (exit 0), ``timeout``, or ``error`` (any
other exit: collection, usage or internal error) — and, with
``--json``, writes the outcomes; with ``--expect killed`` it exits 1 if
any selected mutant is not killed (the CI smoke).  The committed ledger
is ``docs/mutants.md``.

Operators: ``<``↔``<=`` and ``>``↔``>=``, ``+``↔``-``, ``max``↔``min``,
±1 on integer constants and subscript indices, a dropped ``break`` /
``continue``, and a negated ``if`` / ``while`` / ternary condition.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("repro/runtime/events.py", "repro/runtime/batched.py",
           "repro/runtime/metrics.py", "repro/actions/lowering.py")
SEED, COUNT, TIMEOUT = 0, 100, 150.0

_FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
         ast.GtE: ast.Gt, ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-"}


@dataclass(frozen=True)
class Mutant:
    id: str
    module: str
    line: int
    col: int
    op: str

    def label(self) -> str:
        return f"{Path(self.module).name}:{self.line} {self.op}"


def _inert(tree) -> set[int]:
    """Ids of the nodes no mutant touches: docstrings and annotations
    (never evaluated under ``from __future__ import annotations``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant):
                out.add(id(first.value))
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if note is not None:
                out.update(id(n) for n in ast.walk(note))
    return out


def _sites(tree):
    """``(node, description, apply)`` per mutation site, in
    ``ast.walk`` order; ``apply(node)`` rewrites ``node`` in place and
    returns a replacement for it (or ``node`` itself)."""
    skip = _inert(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIP:
                    new = _FLIP[type(op)]
                    yield node, f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}", \
                        _set_cmp(i, new)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in _FLIP:
            new = _FLIP[type(node.op)]
            yield node, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}", \
                _set_op(new)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("max", "min"):
            new = "min" if node.func.id == "max" else "max"
            yield node, f"{node.func.id} -> {new}", _rename(new)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                yield node, f"{node.value} -> {node.value + delta}", \
                    _shift_const(delta)
        elif isinstance(node, ast.Subscript) and not isinstance(
                node.slice, (ast.Slice, ast.Tuple, ast.Constant)) \
                and isinstance(node.ctx, ast.Load):
            for delta in (1, -1):
                yield node, f"index {'+' if delta > 0 else '-'}1", \
                    _shift_index(delta)
        elif isinstance(node, (ast.Break, ast.Continue)):
            yield node, f"drop {type(node).__name__.lower()}", _drop
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node, "negate condition", _negate


def _set_cmp(i, new):
    def apply(node):
        node.ops[i] = new()
        return node
    return apply


def _set_op(new):
    def apply(node):
        node.op = new()
        return node
    return apply


def _rename(new):
    def apply(node):
        node.func = ast.Name(id=new, ctx=ast.Load())
        return node
    return apply


def _shift_const(delta):
    def apply(node):
        node.value += delta
        return node
    return apply


def _shift_index(delta):
    def apply(node):
        node.slice = ast.BinOp(node.slice, ast.Add() if delta > 0
                               else ast.Sub(), ast.Constant(1))
        return node
    return apply


def _drop(node):
    return ast.Pass()


def _negate(node):
    node.test = ast.UnaryOp(ast.Not(), node.test)
    return node


def _tree(module: str, src: Path):
    return ast.parse((src / module).read_text(), filename=module)


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mutants(module: str, src: Path, tree=None):
    """``(Mutant, node, apply)`` per site of ``module`` (of ``tree``, its
    parse, if given), each under its content-derived id."""
    text = (src / module).read_text().splitlines()
    rank: dict[tuple[str, str], int] = {}
    for node, what, apply in _sites(tree or _tree(module, src)):
        line = text[node.lineno - 1].strip()
        k = rank[line, what] = rank.get((line, what), -1) + 1
        digest = _hash(f"{module}\0{line}\0{what}\0{k}")
        yield Mutant(f"m{digest[:7]}", module, node.lineno,
                     node.col_offset, what), node, apply


def enumerate_sites(src: Path) -> list[Mutant]:
    out = [m for module in MODULES for m, _, _ in _mutants(module, src)]
    assert len({m.id for m in out}) == len(out), "mutant id collision"
    return out


def sample(src: Path) -> list[Mutant]:
    """A seeded sample of the sites, an equal share per module (so each
    module's kill rate means something), in module and line order."""
    sites = enumerate_sites(src)
    picked = []
    for i, module in enumerate(MODULES):
        share = COUNT // len(MODULES) + (i < COUNT % len(MODULES))
        picked += sorted((m for m in sites if m.module == module),
                         key=lambda m: _hash(f"{SEED}:{m.id}"))[:share]
    return sorted(picked, key=lambda m: (MODULES.index(m.module), m.line,
                                         m.col, m.id))


def mutate(m: Mutant, src: Path) -> str:
    """The source of ``m.module`` with mutant ``m`` applied."""
    tree = _tree(m.module, src)
    (node, apply), = [(n, a) for site, n, a in _mutants(m.module, src, tree)
                      if site.id == m.id]
    new = apply(node)
    if new is not node:  # a statement replaced: swap it in its parent
        for parent in ast.walk(tree):
            for _, value in ast.iter_fields(parent):
                if isinstance(value, list) and any(v is node for v in value):
                    value[[id(v) for v in value].index(id(node))] = new
    return ast.unparse(ast.fix_missing_locations(tree))


def run_one(m: Mutant | None, root: Path, tests: list[str],
            timeout: float) -> tuple[str, float]:
    """Run ``tests`` against mutant ``m`` (``None``: unmutated)."""
    src = root / "src"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        if m is not None:
            (copy / m.module).write_text(mutate(m, src))
        env = dict(os.environ, PYTHONPATH=str(copy),
                   PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=root, env=env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - t0
        took = time.perf_counter() - t0
    # pytest exits 1 only when tests ran and one failed
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode,
                                                f"error {proc.returncode}")
    return verdict, took


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=("list", "run"))
    ap.add_argument("tests", nargs="*", help="pytest paths (run)")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ is mutated and tests run")
    ap.add_argument("--only", help="comma-separated mutant ids, any site")
    ap.add_argument("--timeout", type=float, default=TIMEOUT)
    ap.add_argument("--json", type=Path, help="write outcomes here")
    ap.add_argument("--expect", choices=("killed",),
                    help="exit 1 unless every selected mutant is killed")
    args = ap.parse_intermixed_args(argv)
    src = args.root / "src"
    if args.only:
        wanted = args.only.split(",")
        sites = {m.id: m for m in enumerate_sites(src)}
        stale = [k for k in wanted if k not in sites]
        if stale:
            print(f"unknown mutant id(s) {', '.join(stale)}: their source "
                  "lines changed, so the ledger (docs/mutants.md) is "
                  "stale; regenerate it", file=sys.stderr)
            return 2
        mutants = [sites[k] for k in wanted]
    else:
        mutants = sample(src)
    if args.command == "list":
        for m in mutants:
            print(m.id, m.label())
        return 0
    verdict, took = run_one(None, args.root, args.tests, args.timeout)
    print(f"unmutated {verdict:8} {took:6.1f}s", flush=True)
    if verdict != "survived":
        print("the unmutated tests do not pass; no mutant run",
              file=sys.stderr)
        return 2
    outcomes = {}
    for m in mutants:
        verdict, took = run_one(m, args.root, args.tests, args.timeout)
        outcomes[m.id] = dict(asdict(m), verdict=verdict,
                              seconds=round(took, 1))
        print(f"{m.id} {verdict:8} {took:6.1f}s {m.label()}", flush=True)
        if args.json:
            args.json.write_text(json.dumps(outcomes, indent=1) + "\n")
    if args.expect:
        missed = [k for k, o in outcomes.items() if o["verdict"] != "killed"]
        if missed:
            print("not killed:", ", ".join(missed))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
