"""Self-test of the end-to-end benchmark (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q``.  Covers the tracer's
self-time arithmetic, its degrade-never-crash path, the statistics and
``--compare`` verdicts, the contract's refusal outside a checkout, and
one ``--smoke`` run that must produce every metric ``BENCHMARK.json``
names.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run
import tracer as tracing
import workloads
from tracer import Span, Target, Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracer arithmetic -------------------------------------------------------


def _spans():
    # thread 1: op[0,10] > measure[1,9] > (execute[2,6] > execute[3,5]),
    #           fold[6,8]
    # thread 2: dispatch[4,7] running while thread 1's op is open
    return [
        Span("op", 0.0, 10.0, 1, 1, None, 1),
        Span("analysis.measure", 1.0, 9.0, 1, 1, 0, 1),
        Span("runtime.execute", 2.0, 6.0, 1, 1, 1, 1),
        Span("runtime.execute", 3.0, 5.0, 1, 1, 2, 1),
        Span("analysis.fold", 6.0, 8.0, 1, 1, 1, 1),
        Span("serve.dispatch", 4.0, 7.0, 1, 2, None, 2),
    ]


def test_self_time_is_duration_minus_direct_children():
    assert tracing.self_times(_spans()) == [2.0, 2.0, 2.0, 2.0, 2.0, 3.0]


def test_self_times_of_one_thread_sum_to_its_root():
    spans = _spans()
    own = tracing.self_times(spans)
    on_thread_1 = sum(t for t, s in zip(own, spans) if s.tid == 1)
    assert on_thread_1 == spans[0].end - spans[0].start


def test_summarize_counts_same_name_nesting_once():
    summary = tracing.summarize(_spans())
    assert summary["runtime.execute"] == (1, 4.0, 4.0)
    assert summary["analysis.measure"] == (1, 8.0, 2.0)
    assert summary["serve.dispatch"] == (1, 3.0, 3.0)


def test_layer_metrics_are_per_operation_and_total():
    spans = _spans()
    metrics = tracing.layer_metrics(
        spans, {"runtime.events": 200, "plan.hits": 3, "plan.misses": 1},
        {"host.calib_s": 0.05}, ops=2)
    assert set(metrics) == {name for name, *_ in tracing.LAYER_METRICS}
    assert metrics["runtime.execute_s"] == 2.0
    assert metrics["runtime.execute_calls"] == 0.5
    assert metrics["runtime.events"] == 100
    assert metrics["runtime.events_per_s"] == 50.0
    assert metrics["analysis.plan_hit_ratio"] == 0.75
    assert metrics["analysis.measure_self_s"] == 1.0
    assert metrics["trace.untraced_ratio"] == 0.2      # op self 2 of 10
    assert metrics["sweep.cache_put_calls"] == 0       # not on this path
    assert metrics["host.calib_s"] == 0.05


def test_adopt_hangs_child_roots_under_the_op():
    spans = [Span("op", 0.0, 5.0, 1, 0, None, 0)]
    child = [["cli.main", 1.0, 4.0, 2, 7, None, 1],
             ["sweep.run", 2.0, 3.0, 2, 7, 0, 1]]
    tracing.adopt(spans, child, 0)
    assert [s.parent for s in spans] == [None, 0, 1]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0]


def test_chrome_trace_events_are_complete_spans():
    trace = tracing.chrome_trace(_spans())
    event = trace["traceEvents"][1]
    assert event["ph"] == "X" and event["name"] == "analysis.measure"
    assert event["ts"] == 1e6 and event["dur"] == 8e6
    assert event["cat"] == "analysis" and event["args"]["rid"] == 1


# -- installing wrappers -----------------------------------------------------


def _fake_modules():
    """``repro._e2e_a`` defines f and a class; ``repro._e2e_b`` imported
    f by name — the copy the tracer must rebind too."""
    import repro    # noqa: F401 - parent package of the fake modules

    a = types.ModuleType("repro._e2e_a")
    b = types.ModuleType("repro._e2e_b")

    def f(x):
        return x + 1

    class Plan:
        n_actions = 7

        @classmethod
        def lower(cls):
            return cls()

    a.f, a.Plan = f, Plan
    b.f = f
    b.g = lambda x: b.f(x) * 2
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    return a, b


def test_install_rebinds_every_copy_and_uninstall_restores():
    a, b = _fake_modules()
    original = a.f
    tracer = Tracer([
        Target("repro._e2e_a", "f", "fake.f"),
        Target("repro._e2e_a", "Plan.lower", "fake.lower",
               count=lambda _a, _k, result: {"n": result.n_actions}),
        Target("repro._e2e_a", "renamed_away", "fake.gone"),
        Target("repro._e2e_nowhere", "f", "fake.gone"),
    ])
    try:
        tracer.install()
        assert b.f is a.f and a.f is not original
        with tracer.span("op"):
            assert b.g(1) == 4
            assert isinstance(a.Plan.lower(), a.Plan)
        spans = tracer.export(pid=1)
        assert [s.name for s in spans] == ["fake.f", "fake.lower", "op"]
        assert spans[0].parent == 2 and spans[1].parent == 2
        assert len({s.rid for s in spans}) == 1     # one request id
        assert tracer.counters == {"n": 7}
    finally:
        tracer.uninstall()
        del sys.modules["repro._e2e_a"], sys.modules["repro._e2e_b"]
    assert a.f is original and b.f is original
    assert a.Plan.lower().n_actions == 7


def test_missing_targets_are_reported_not_raised():
    gone = tracing.missing_targets([
        Target("repro.cli", "main", "cli.main"),
        Target("repro.cli", "no_such_function", "x"),
        Target("repro.no_such_module", "f", "x"),
        Target("repro.sweep.cache", "ResultCache.no_such_method", "x"),
    ])
    assert gone == ["repro.cli:no_such_function", "repro.no_such_module:f",
                    "repro.sweep.cache:ResultCache.no_such_method"]


def test_every_table_entry_resolves_at_this_commit():
    assert tracing.missing_targets() == []


def test_a_counter_that_raises_is_dropped():
    a, _b = _fake_modules()
    tracer = Tracer([Target("repro._e2e_a", "f", "fake.f",
                            count=lambda *_: 1 / 0)])
    try:
        tracer.install()
        assert a.f(1) == 2
        assert tracer.counters == {"trace.count_errors": 1}
    finally:
        tracer.uninstall()
        del sys.modules["repro._e2e_a"], sys.modules["repro._e2e_b"]


def test_threads_keep_their_own_span_stacks():
    tracer = Tracer([])
    ready = threading.Barrier(2)

    def work(name):
        with tracer.span(name):
            ready.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    spans = tracer.export(pid=1)
    assert sorted(s.name for s in spans) == ["a", "b"]
    assert all(s.parent is None for s in spans)
    assert spans[0].tid != spans[1].tid and spans[0].rid != spans[1].rid


# -- statistics and verdicts -------------------------------------------------


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = run.quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert run.spread(values) == (17.25 - 11.75) / 14.5
    assert run.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert run.spread([3.0]) == 0.0


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert workloads.percentile(samples, 0.50) == 51.0
    assert workloads.percentile(samples, 0.90) == 91.0
    assert workloads.percentile([5.0], 0.99) == 5.0


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, [x * 1.02 for x in steady],
                       "lower", 0.05)[1] == "ok"
    worse, word = run.verdict(steady, [x * 1.10 for x in steady],
                              "lower", 0.05)
    assert word == "regressed" and abs(worse - 0.10) < 1e-9
    # a throughput that falls is worse
    assert run.verdict(steady, [x * 0.90 for x in steady],
                       "higher", 0.05)[1] == "regressed"
    assert run.verdict(steady, [x * 1.10 for x in steady],
                       "higher", 0.05)[1] == "ok"
    # spread wider than the bound: unresolved, unless B wins every pair
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert run.verdict(noisy, [x * 1.01 for x in noisy],
                       "lower", 0.05)[1] == "unresolved"
    assert run.verdict(noisy, [x * 0.5 for x in noisy],
                       "lower", 0.05)[1] == "ok"


def test_compare_flags_regressions_and_digest_changes():
    def results(op_ms, sim="abc"):
        return {"workloads": {"hybrid_grid": {
            "end_to_end": {"op_ms": op_ms, "work_per_s": [10.0, 10.0]},
            "runs": [{"trace": 0, "seed": 0, "sim_digest": sim}]}}}

    text, regressed = run.compare(results([100.0, 101.0]),
                                  results([100.5, 101.5]))
    assert not regressed and "ok" in text
    text, regressed = run.compare(results([100.0, 101.0]),
                                  results([200.0, 201.0]))
    assert regressed and "regressed" in text
    text, regressed = run.compare(results([100.0, 101.0]),
                                  results([100.0, 101.0], sim="xyz"))
    assert regressed and "sim_digest differs" in text


def test_digest_ignores_order_and_repeats_but_not_bits():
    records = [{"cell": [1, 2], "seq_per_s": 0.1 + 0.2},
               {"cell": [3, 4], "seq_per_s": 1.5}]
    assert workloads.digest(records) == \
        workloads.digest(records[::-1] + records)
    changed = [dict(records[0], seq_per_s=0.3), records[1]]
    assert workloads.digest(changed) != workloads.digest(records)


def test_fig09_gap_mae_against_the_papers_gaps():
    rows = []
    for (cluster, p), paper in workloads.FIG09_PAPER_GAPS.items():
        common = {"model": "bert-64L", "total_batch": 8, "oom": False,
                  "cluster": cluster, "p": p}
        rows.append({**common, "scheme": "chimera-wave", "w": 1,
                     "seq_per_s": 1.0})
        rows.append({**common, "scheme": "hanayo", "w": 2,
                     "seq_per_s": 1.0 + (paper + 2.0) / 100.0})
        rows.append({**common, "scheme": "hanayo", "w": 4,
                     "seq_per_s": 1.0})
    assert abs(workloads.fig09_gap_mae_pp(rows) - 2.0) < 1e-9


# -- the contract ------------------------------------------------------------


def test_benchmark_json_matches_the_tables():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"]
             if m["name"] == "setup_s")


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_cli",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not found" in proc.stderr


def test_smoke_run_reports_every_metric_benchmark_json_names():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(
        (HERE / "out" / "results-seed0.json").read_text())
    assert list(results["workloads"]) == [w["name"]
                                          for w in SPEC["workloads"]]
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        for metric in SPEC["end_to_end"]:
            (value,) = entry["end_to_end"][metric["name"]]
            assert math.isfinite(value) and value > 0, (name, metric)
        for metric in SPEC["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            assert math.isfinite(value) and value >= 0, (name, metric)
        assert entry["per_layer"]["trace.missing_targets"] == 0
        assert (HERE / "out" / f"{name}.trace.json").is_file()
    grids = ("hybrid_grid", "contention_grid")
    for name in grids:      # the "no change" predictions, as counts
        layer = results["workloads"][name]["per_layer"]
        assert layer["schedules.build_calls"] == 0
        assert layer["actions.retime_calls"] == 0
        assert layer["trace.untraced_ratio"] < 0.10
    warm = results["workloads"]["sweep_warm"]["per_layer"]
    assert warm["sweep.cache_put_calls"] == 0
    assert warm["sweep.cache_hit_ratio"] == 1.0
