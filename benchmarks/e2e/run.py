#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the repro package.

One workload, as the benchmark contract runs it (last stdout line is one
JSON object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced run)::

    python3 benchmarks/e2e/run.py --workload cold_cli --seed 0 \\
        --seconds 10 --trace 0

Every workload, untraced then traced, with a report and a results file
under ``benchmarks/e2e/out/``::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --repeats 10   # seeds 0..9
    python3 benchmarks/e2e/run.py --aa                    # same code twice
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke                 # functional check
    python3 benchmarks/e2e/run.py --write-golden          # re-pin outputs

See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up is timed from process start

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer as tracing
import workloads
from workloads import OUT, ROOT, SRC, WORKLOADS, digest

#: end-to-end metrics every workload reports: (name, unit, better)
END_TO_END = (
    ("op_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


# -- statistics --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """``(relative change for the worse, verdict)`` of runs ``b`` vs ``a``.

    ``regressed`` when the median is worse by more than the bound;
    ``unresolved`` when the runs' own spread is wider than the bound
    (unless every run of ``b`` beats every run of ``a``); else ``ok``.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles(a)[1]
    worse = sign * (quartiles(b)[1] - base) / base if base else 0.0
    if max(spread(a), spread(b)) > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else \
            (min(b) > max(a))
        return worse, "ok" if b_wins else "unresolved"
    return worse, "regressed" if worse > bound else "ok"


# -- one workload (the contract's unit) --------------------------------------


def scratch_root() -> Path:
    """Where temporary files go: inside the checkout, git-ignored."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return OUT / "tmp"


def drive(name: str, seed: int, seconds: float, tracer, golden):
    """Set up, run and close one workload in a fresh scratch directory;
    returns ``(workload, setup seconds, peak RSS KiB)``."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root()))
    load = WORKLOADS[name](seed, tracer, scratch, golden)
    try:
        load.setup()
        setup_s = time.perf_counter() - _T0
        load.run(seconds)
        rss_kib = load.peak_rss_kib()
    finally:
        load.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return load, setup_s, rss_kib


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload once; returns its full detail record."""
    golden = json.loads((HERE / "golden.json").read_text())
    load, setup_s, rss_kib = drive(
        name, seed, seconds, tracing.Tracer() if trace else None, golden)
    sim_digest = digest(load.records)
    load.check(sim_digest == golden[name]["sim_digest"],
               f"{name}: sim_digest {sim_digest[:12]} != golden")
    q1, median, q3 = quartiles(load.samples)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": load.attempted,
        "failed": load.failed, "failures": load.failures[:5],
        "sim_digest": sim_digest, "ops": load.ops,
        "op_samples": len(load.samples),
        "op_q1_ms": q1 * 1e3, "op_q3_ms": q3 * 1e3,
        "work_unit": load.unit,
    }
    if not trace:
        detail["metrics"] = {
            "op_ms": median * 1e3,
            "work_per_s": statistics.median(load.rates),
            "peak_rss_mib": rss_kib / 1024.0,
            "setup_s": setup_s,
        }
    else:
        workloads.import_repro()
        load.extra.update({
            "host.calib_s": workloads.host_calibration(),
            "trace.op_ms": median * 1e3,
            "trace.missing_targets": len(tracing.missing_targets()),
        })
        detail["metrics"] = tracing.layer_metrics(
            load.spans, load.counters, load.extra, load.ops)
        (OUT / f"{name}.trace.json").write_text(
            json.dumps(tracing.chrome_trace(load.spans)))
    return detail


def contract_line(detail: dict) -> str:
    """The last stdout line the benchmark contract prescribes."""
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, _b, _s
                  in tracing.LAYER_METRICS})
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in detail["metrics"].items()},
    })


# -- every workload ----------------------------------------------------------


def host_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One contract-mode subprocess; returns its detail record."""
    handle, path = tempfile.mkstemp(suffix=".json", dir=scratch_root())
    os.close(handle)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--detail", path],
            capture_output=True, text=True)
        if not os.path.getsize(path):
            raise SystemExit(f"{name} (trace {trace}) exited "
                             f"{proc.returncode} without a result:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(Path(path).read_text())
    finally:
        os.unlink(path)


def run_all(seed: int, seconds: float, repeats: int, traced: bool = True,
            jobs: int = 1) -> dict:
    """Every workload ``repeats`` times untraced (seeds ``seed``,
    ``seed + 1``, ...), then once traced; returns the results record."""
    results = {"host": host_info(), "seed": seed, "seconds": seconds,
               "repeats": repeats, "workloads": {}}
    plan = [(name, seed + i, 0) for name in WORKLOADS for i in range(repeats)]
    if traced:
        plan += [(name, seed, 1) for name in WORKLOADS]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        details = list(pool.map(
            lambda job: run_one(job[0], job[1], seconds, job[2]), plan))
    for (name, _seed, trace), detail in zip(plan, details):
        entry = results["workloads"].setdefault(name, {
            "end_to_end": {}, "per_layer": {}, "runs": [],
            "attempted": 0, "failed": 0})
        entry["attempted"] += detail["attempted"]
        entry["failed"] += detail["failed"]
        if trace:
            entry["per_layer"] = detail.pop("metrics")
        else:
            for metric, value in detail.pop("metrics").items():
                entry["end_to_end"].setdefault(metric, []).append(value)
        entry["runs"].append(detail)
    return results


def load_bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def report(results: dict) -> str:
    bounds = load_bounds()
    host = results["host"]
    lines = [f"host: {host['nproc']} CPUs, Python {host['python']}, NumPy "
             f"{host['numpy']}; seed {results['seed']}, "
             f"{results['seconds']} s per run, {results['repeats']} "
             "untraced run(s) per workload",
             "", "end-to-end (untraced runs; spread = (q3-q1)/median "
             "across runs)",
             f"{'workload':16s} {'metric':13s} {'unit':5s} {'median':>12s} "
             f"{'q1':>12s} {'q3':>12s} {'runs':>4s} {'spread':>7s} "
             f"{'bound':>6s}"]
    for name, entry in results["workloads"].items():
        for metric, unit, _better in END_TO_END:
            values = entry["end_to_end"].get(metric)
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            lines.append(
                f"{name:16s} {metric:13s} {unit:5s} {median:12.4f} "
                f"{q1:12.4f} {q3:12.4f} {len(values):4d} "
                f"{spread(values):7.2%} {bounds.get(metric, 0):6.0%}")
        run = next(r for r in entry["runs"] if not r["trace"])
        lines.append(
            f"{'':16s} in one run: {run['op_samples']} operations "
            f"(q1 {run['op_q1_ms']:.2f} ms, q3 {run['op_q3_ms']:.2f} ms), "
            f"work unit {run['work_unit']}, checked {entry['attempted']}, "
            f"failed {entry['failed']}, sim_digest {run['sim_digest'][:12]}")
    traced = {n: e["per_layer"] for n, e in results["workloads"].items()
              if e["per_layer"]}
    if traced:
        names = list(traced)
        lines += ["", "per-layer (traced run; per operation; 0 = not on "
                  "this workload's path)",
                  f"{'metric':27s} {'unit':7s} "
                  + " ".join(f"{n[:12]:>12s}" for n in names)]
        for metric, unit, _better, _source in tracing.LAYER_METRICS:
            lines.append(f"{metric:27s} {unit:7s} " + " ".join(
                f"{traced[n].get(metric, 0.0):12.5g}" for n in names))
        untraced = {n: quartiles(results["workloads"][n]["end_to_end"]["op_ms"])
                    for n in names}
        lines.append(f"{'trace.overhead_ratio':27s} {'ratio':7s} " + " ".join(
            f"{traced[n]['trace.op_ms'] / untraced[n][1]:12.3f}"
            for n in names))
    return "\n".join(lines)


def compare(a: dict, b: dict) -> tuple[str, bool]:
    """Per (metric, workload): medians, change, bound, verdict."""
    bounds = load_bounds()
    lines = [f"{'workload':16s} {'metric':13s} {'A median':>12s} "
             f"{'B median':>12s} {'worse by':>9s} {'bound':>6s} verdict"]
    regressed = False
    for name, entry in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        for metric, _unit, better in END_TO_END:
            va = entry["end_to_end"].get(metric)
            vb = other["end_to_end"].get(metric)
            if not va or not vb:
                continue
            worse, word = verdict(va, vb, better, bounds[metric])
            regressed |= word == "regressed"
            lines.append(
                f"{name:16s} {metric:13s} {quartiles(va)[1]:12.4f} "
                f"{quartiles(vb)[1]:12.4f} {worse:+9.2%} "
                f"{bounds[metric]:6.0%} {word}")
        # the digest does not depend on the seed or the run length
        if ({r["sim_digest"] for r in entry["runs"]}
                != {r["sim_digest"] for r in other["runs"]}):
            regressed = True
            lines.append(f"{name:16s} sim_digest differs: simulated "
                         "statistics changed")
    return "\n".join(lines), regressed


# -- goldens -----------------------------------------------------------------


class _Unpinned(dict):
    """A golden that matches nothing: every check fails, outputs are kept."""

    def __missing__(self, key):
        return _Unpinned()


def write_golden() -> None:
    """Pin what the program computes now (after a deliberate model change)."""
    golden: dict = {"advise": {}}
    for name in WORKLOADS:
        load, _setup_s, _rss = drive(name, 0, 0, None, _Unpinned())
        golden[name] = {"sim_digest": digest(load.records)}
        for record in load.records:
            if "answer" in record:
                pinned = golden["advise"].setdefault(record["shape"],
                                                     record["answer"])
                if pinned != record["answer"]:
                    raise SystemExit(
                        f"{record['shape']}: the served answer and `repro "
                        "advise --json` differ")
            elif "search" in record:
                golden[name].setdefault("searches", {})[record["search"]] = {
                    k: v for k, v in record.items() if k != "search"}
        if "fidelity.fig09_gap_mae_pp" in load.extra:
            golden[name]["fig09_gap_mae_pp"] = \
                load.extra["fidelity.fig09_gap_mae_pp"]
        print(f"{name}: {golden[name]['sim_digest'][:12]}", file=sys.stderr)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


# -- entry -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload and print the "
                             "contract's JSON line (default: run all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed section of each run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="PATH",
                        help="also write the run's full record here")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload, seeds seed..")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true",
                        help="minimum operations, two workloads at a time")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        text, regressed = compare(a, b)
        print(text)
        return 1 if regressed else 0
    if args.write_golden:
        write_golden()
        return 0
    if args.workload:
        detail = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        if args.detail:
            Path(args.detail).write_text(json.dumps(detail))
        for failure in detail["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(contract_line(detail))
        return 0 if detail["failed"] == 0 else 1

    seconds = 0.0 if args.smoke else args.seconds
    jobs = 2 if args.smoke else 1
    results = run_all(args.seed, seconds, args.repeats, jobs=jobs,
                      traced=not args.aa)
    failed = sum(e["failed"] for e in results["workloads"].values())
    print(report(results))
    OUT.mkdir(exist_ok=True)
    out = OUT / f"results-seed{args.seed}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}; traces in "
          f"{OUT.relative_to(ROOT)}/<workload>.trace.json "
          "(open at https://ui.perfetto.dev)")
    if args.aa:
        again = run_all(args.seed, seconds, args.repeats, traced=False)
        out.with_name(f"results-seed{args.seed}-again.json").write_text(
            json.dumps(again, indent=1))
        failed += sum(e["failed"] for e in again["workloads"].values())
        text, regressed = compare(results, again)
        print("\nA/A: the same code measured twice\n" + text)
        if regressed:
            return 1
    if failed:
        print(f"{failed} operation(s) FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
