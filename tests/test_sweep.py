"""The parallel cached sweep engine (repro.sweep)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys

import pytest

import repro.sweep.engine as engine_mod
from repro.analysis import measure_throughput, search_grid
from repro.cli import main as cli_main
from repro.cluster import make_fc, make_tacc
from repro.errors import ConfigError
from repro.models import bert_64, tiny_model
from repro.sweep import (
    ResultCache,
    SweepSpec,
    cache_key,
    run_sweep,
    split_batch,
)


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        schemes=("gpipe", "dapple", "hanayo"),
        clusters=(make_fc(4),),
        models=(tiny_model(num_layers=16),),
        layouts=((4, 1), (2, 2)),
        total_batches=(8,),
        waves=(1, 2),
    )
    base.update(overrides)
    return SweepSpec(**base)


def mixed_spec() -> SweepSpec:
    """A grid holding live, OOM and infeasible cells: chimera cannot
    run on 3 devices, and the capacity sits between the cells' peaks."""
    return tiny_spec(schemes=("chimera", "dapple"), waves=(1,),
                     layouts=((3, 1), (4, 1), (2, 2)),
                     capacity_bytes=3_000_000)


@pytest.fixture
def counter(monkeypatch):
    """Wrap the engine's one measure global: one entry per lane."""
    calls = []
    real = engine_mod.measure_hybrid_throughput_batch

    def counted(requests):
        calls.extend(requests)
        return real(requests)

    monkeypatch.setattr(engine_mod, "measure_hybrid_throughput_batch",
                        counted)
    return calls


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        first = run_sweep(spec, cache=cache)
        assert first.stats.computed == first.stats.total > 0
        assert first.stats.cached == 0
        assert len(cache) == first.stats.total

        second = run_sweep(spec, cache=cache)
        assert second.stats.computed == 0
        assert second.stats.cached == second.stats.total
        assert [r.to_dict() | {"cached": False} for r in second.rows] == \
               [r.to_dict() | {"cached": False} for r in first.rows]
        assert all(r.cached for r in second.rows)

    def test_warm_cache_makes_zero_measure_calls(self, tmp_path, counter):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        run_sweep(spec, cache=cache)
        assert len(counter) == len(spec.expand())
        counter.clear()
        table = run_sweep(spec, cache=cache)
        assert counter == []            # every cell served from disk
        assert table.stats.computed == 0

    def test_infeasible_cells_cached_too(self, tmp_path, counter):
        # chimera needs an even device count, so a (3, 1) layout passes
        # expansion but is rejected by the schedule builder — the
        # infeasible verdict must still be cached.
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("chimera",), waves=(1,),
                         layouts=((3, 1),))
        first = run_sweep(spec, cache=cache)
        assert first.stats.infeasible == first.stats.total == 1
        assert len(first.rows) == 0
        counter.clear()
        second = run_sweep(spec, cache=cache)
        assert counter == []
        assert second.stats.cached == 1 and second.stats.computed == 0

    def test_corrupted_entry_recovers(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        total = first.stats.total
        (log,) = (tmp_path / "c").iterdir()
        lines = log.read_text().splitlines()
        assert len(lines) == total >= 4

        # four corruption modes: garbage bytes, valid JSON of the wrong
        # schema, a wrong version, and an entry under a mismatched key
        entries = [json.loads(line) for line in lines]
        lines[0] = "{ not json !!!"
        lines[1] = json.dumps(["not", "an", "entry"])
        lines[2] = json.dumps(entries[2] | {"version": 999})
        lines[3] = json.dumps(entries[3] | {"key": "0" * 64})
        log.write_text("\n".join(lines) + "\n")
        second = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        assert second.stats.computed == 4
        assert second.stats.cached == total - 4
        # each bad line was superseded by a recomputed one (later wins)
        third = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        assert third.stats.computed == 0
        assert [r.to_dict() | {"cached": False} for r in third.rows] == \
               [r.to_dict() for r in first.rows]
        assert len(log.read_text().splitlines()) == total + 4
        assert len(ResultCache(tmp_path / "c")) == total + 1  # + "000…"

    def test_torn_final_line_loses_only_that_record(self, tmp_path):
        spec = tiny_spec(schemes=("gpipe",), waves=(1,))
        first = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        (log,) = (tmp_path / "c").iterdir()
        data = log.read_bytes()
        log.write_bytes(data[:-40])     # a writer died mid-record
        second = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        assert second.stats.computed == 1
        assert second.stats.cached == first.stats.total - 1
        # the recomputed line did not fuse with the torn tail
        third = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
        assert third.stats.cached == first.stats.total

    def test_concurrent_processes_append_to_one_log(self, tmp_path):
        """Two processes filling disjoint halves of a grid at once
        interleave at line granularity: a third run is fully cached."""
        script = (
            "import sys\n"
            "from repro.cluster import make_fc\n"
            "from repro.models import tiny_model\n"
            "from repro.sweep import ResultCache, SweepSpec, run_sweep\n"
            "spec = SweepSpec(schemes=tuple(sys.argv[2:]),\n"
            "    clusters=(make_fc(4),), models=(tiny_model(num_layers=16),),\n"
            "    layouts=((4, 1), (2, 2)), total_batches=(8,), waves=(1, 2))\n"
            "table = run_sweep(spec, cache=ResultCache(sys.argv[1]))\n"
            "assert table.stats.cached == 0\n"
        )
        halves = (("gpipe", "hanayo"), ("dapple", "interleaved"))
        procs = [
            subprocess.Popen([sys.executable, "-c", script,
                              str(tmp_path / "c"), *half])
            for half in halves
        ]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        whole = tiny_spec(schemes=halves[0] + halves[1])
        table = run_sweep(whole, cache=ResultCache(tmp_path / "c"))
        assert table.stats.cached == table.stats.total > 0
        assert len(list((tmp_path / "c").iterdir())) == 1

    def test_clear_removes_stale_generations_and_per_key_files(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, {"value": 1})
        (tmp_path / "results-v8-0123456789abcdef.jsonl").write_text("{}\n")
        (tmp_path / ("f" * 64 + ".json")).write_text("{}")   # version <= 8
        (tmp_path / "notes.txt").write_text("not ours")
        assert len(cache) == 1
        assert cache.clear() == 3
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
        assert len(cache) == 0 and cache.get("k" * 64) is None
        cache.put("k" * 64, {"value": 2})       # usable after a clear
        assert ResultCache(tmp_path).get("k" * 64) == {"value": 2}

    def test_other_code_generation_is_not_parsed(self, tmp_path,
                                                 monkeypatch):
        """A source edit starts a new log instead of growing the one
        every later run would have to parse."""
        import repro.sweep.cache as cache_mod
        old = ResultCache(tmp_path)
        old.put("k" * 64, {"value": 1})
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "e" * 64)
        new = ResultCache(tmp_path)
        assert new.path != old.path and not new.path.exists()
        assert len(new) == 0 and new.get("k" * 64) is None
        new.put("k" * 64, {"value": 2})
        assert old.get("k" * 64) == {"value": 1}
        assert len(list(tmp_path.iterdir())) == 2

    def test_key_stability_across_processes(self, tmp_path):
        shape = dict(p=4, d=1, w=2, num_microbatches=4, microbatch_size=2)
        local = cache_key("hanayo", make_fc(4), tiny_model(), **shape)
        script = (
            "from repro.sweep import cache_key\n"
            "from repro.cluster import make_fc\n"
            "from repro.models import tiny_model\n"
            "print(cache_key('hanayo', make_fc(4), tiny_model(), p=4, d=1,"
            " w=2, num_microbatches=4, microbatch_size=2))\n"
        )
        keys = []
        for seed in ("0", "1", "31337"):
            env = os.environ | {"PYTHONHASHSEED": seed}
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, text=True,
                capture_output=True, check=True,
            )
            keys.append(out.stdout.strip())
        assert set(keys) == {local}

    def test_key_includes_capacity(self):
        """Capacity what-ifs must not share cells with default runs."""
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        capped = cache_key("gpipe", make_fc(4), tiny_model(), **shape,
                           capacity_bytes=10 * 2**30)
        assert base != capped

    def test_key_includes_contention(self):
        """Arbitrated and uncontended runs must not share cells."""
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        arbitrated = cache_key("gpipe", make_fc(4), tiny_model(), **shape,
                               contention=True)
        assert base != arbitrated

    def test_key_includes_code_fingerprint(self, monkeypatch):
        """Editing measurement code must invalidate cached cells."""
        import repro.sweep.cache as cache_mod
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "different-simulator-code")
        assert cache_key("gpipe", make_fc(4), tiny_model(), **shape) != base

    def test_fingerprint_covers_execution_semantics(self):
        """Cached cells must self-invalidate when execution semantics
        change: the action/program compiler and the event-driven core
        are part of every cache key, not just cost-model code."""
        import pathlib

        import repro
        from repro.sweep.cache import fingerprint_files

        root = pathlib.Path(repro.__file__).parent
        covered = {p.relative_to(root).as_posix()
                   for p in fingerprint_files()}
        for required in (
            "actions/compiler.py",
            "actions/program.py",
            # resource deltas are measurement semantics: editing the
            # alloc/free model or the watermark tracker must turn a
            # durable cache into misses
            "actions/resources.py",
            # the lowering pass IS the execution representation now —
            # an edited ExecutablePlan encoding must invalidate caches
            "actions/lowering.py",
            "runtime/events.py",
            # the lane-axis fold and the shared left-to-right sum are
            # the accounting every cached number goes through
            "runtime/metrics.py",
            "types.py",
            "runtime/memory.py",
            "runtime/simulator.py",
            "runtime/costs.py",
            # the lockstep stepper measures real sweep cells — its
            # arithmetic is execution semantics like the scalar core
            "runtime/batched.py",
            # both measurement harnesses and the plan-sharing layer
            "analysis/throughput.py",
            "analysis/hybrid.py",
            "analysis/plans.py",
            # the ordering-recompile path is execution semantics too:
            # a synthesized schedule simulates through it
            "actions/reorder.py",
            "synthesis/legality.py",
            "synthesis/search.py",
            "synthesis/serialize.py",
        ):
            assert required in covered, required
        # every runtime module: the package holds no test oracle
        runtime = {p.relative_to(root).as_posix()
                   for p in (root / "runtime").glob("*.py")}
        assert runtime <= covered
        # the record *type* computes nothing; its layout is governed by
        # CACHE_VERSION, not by the code fingerprint
        assert "analysis/result.py" not in covered

    def test_fingerprint_tracks_source_content(self, monkeypatch, tmp_path):
        """The hash is over file *content*, so editing any covered file
        flips it (checked via the un-memoized function)."""
        import repro.sweep.cache as cache_mod

        source = tmp_path / "events.py"
        source.write_text("SEMANTICS = 1\n")
        monkeypatch.setattr(cache_mod, "fingerprint_files",
                            lambda: [source])
        first = cache_mod.code_fingerprint.__wrapped__()
        source.write_text("SEMANTICS = 2\n")
        assert cache_mod.code_fingerprint.__wrapped__() != first

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path,
                                                    monkeypatch):
        """Cells are persisted as they finish, not at the end."""
        import repro.sweep.engine as em
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("gpipe", "dapple"), waves=(1,),
                         layouts=((4, 1),))
        real = em.measure_hybrid_throughput_batch
        calls = []

        def explode_on_second(requests):
            calls.append(requests)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(requests)

        monkeypatch.setattr(em, "measure_hybrid_throughput_batch",
                            explode_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, cache=cache)
        assert len(cache) == 1          # first cell survived the abort
        monkeypatch.setattr(em, "measure_hybrid_throughput_batch", real)
        table = run_sweep(spec, cache=cache)
        assert table.stats.cached == 1 and table.stats.computed == 1

    def test_key_sensitivity(self):
        shape = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        base = cache_key("gpipe", make_fc(4), tiny_model(), **shape)
        assert base != cache_key("dapple", make_fc(4), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_fc(8), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_tacc(4), tiny_model(), **shape)
        assert base != cache_key("gpipe", make_fc(4),
                                 tiny_model(hidden=64), **shape)
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **(shape | {"microbatch_size": 4}))
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **shape, overlap="model")
        assert base != cache_key("gpipe", make_fc(4), tiny_model(),
                                 **shape, tp=2)


class TestPlanCache:
    """The in-process plan cache: structurally identical cells share one
    lowered plan; cost-only axes (the cluster) re-time it."""

    def setup_method(self):
        from repro.analysis import plan_cache
        plan_cache().clear()

    def _measure(self, cluster, **kw):
        args = dict(p=4, d=1, w=1, num_microbatches=4, microbatch_size=2)
        args.update(kw)
        return measure_throughput("hanayo", cluster,
                                  tiny_model(num_layers=16), **args)

    def test_cost_only_axis_hits_the_plan_cache(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        assert (cache.hits, cache.misses) == (0, 1)
        # same structure, different cluster: cost-only change -> hit
        self._measure(make_tacc(4))
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_structural_axis_misses(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        self._measure(make_fc(4), num_microbatches=8, microbatch_size=1)
        self._measure(make_fc(4), d=2, p=2)
        assert cache.hits == 0 and cache.misses == 3
        assert len(cache) == 3

    def test_repeat_same_cell_hits(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        first = self._measure(make_fc(4))
        second = self._measure(make_fc(4))
        assert cache.hits == 1 and cache.misses == 1
        assert second.seq_per_s == first.seq_per_s
        assert second.peak_mem_bytes == first.peak_mem_bytes

    def test_retimed_hit_equals_cold_measurement(self):
        """A plan-cache hit must change nothing about the numbers: the
        re-timed cached plan and a from-scratch compile agree exactly."""
        from repro.analysis import plan_cache
        self._measure(make_fc(4))               # warm the plan cache
        warm = self._measure(make_tacc(4))      # hit, re-timed
        plan_cache().clear()
        cold = self._measure(make_tacc(4))      # cold recompile
        assert warm.seq_per_s == cold.seq_per_s
        assert warm.iteration_s == cold.iteration_s
        assert warm.bubble_ratio == cold.bubble_ratio
        assert warm.peak_mem_bytes == cold.peak_mem_bytes
        assert warm.sync_s == cold.sync_s

    def test_hybrid_cells_share_plans_across_clusters(self):
        from repro.analysis import (
            HybridLayout,
            measure_hybrid_throughput,
            plan_cache,
        )
        cache = plan_cache()
        layout = HybridLayout(tp=2, p=2, d=1)
        kw = dict(num_microbatches=4, microbatch_size=1)
        a = measure_hybrid_throughput("gpipe", make_fc(4),
                                      tiny_model(num_layers=16), layout,
                                      **kw)
        b = measure_hybrid_throughput("gpipe", make_tacc(4),
                                      tiny_model(num_layers=16), layout,
                                      **kw)
        assert cache.hits == 1 and cache.misses == 1
        assert a.seq_per_s != b.seq_per_s  # the clusters do differ

    def test_flat_and_layout_constructors_are_one_request(self):
        """``ThroughputRequest(p=, d=)`` is the layout-carrying request
        with ``HybridLayout(1, p, d)``: equal requests, one plan-cache
        entry (a miss, then hits) whichever spelling measures first."""
        from repro.analysis import (
            HybridLayout,
            HybridRequest,
            ThroughputRequest,
            measure_hybrid_throughput_batch,
            measure_throughput_batch,
            plan_cache,
        )
        cache = plan_cache()
        cluster, model = make_fc(4), tiny_model(num_layers=16)
        flat = ThroughputRequest("hanayo", cluster, model, p=2,
                                 num_microbatches=4, d=2, w=2,
                                 microbatch_size=2, contention=True)
        layout = HybridRequest("hanayo", cluster, model,
                               HybridLayout(tp=1, p=2, d=2), 4, w=2,
                               microbatch_size=2, contention=True)
        assert flat == layout and hash(flat) == hash(layout)
        first = measure_throughput_batch([flat])
        assert (cache.hits, cache.misses) == (0, 1)
        assert measure_hybrid_throughput_batch([layout]) == first
        assert measure_hybrid_throughput_batch([flat, layout]) == first * 2
        assert (cache.hits, cache.misses) == (2, 1)
        assert len(cache) == 1

    def test_plan_key_proves_cross_cluster_sharing_is_safe(self):
        """The cache's core assumption, verified through the content
        hash: one cell shape compiled *independently* against different
        clusters (and capacities) lowers to byte-identical structure —
        equal ``plan_key`` — so re-timing a shared plan is exact.  A
        structural axis must flip the key."""
        from repro.actions import ExecutablePlan
        from repro.analysis import compile_cluster_program
        from repro.models.costs import stage_costs
        from repro.schedules import build_schedule
        from repro.config import PipelineConfig

        def key_for(cluster, b=4):
            cfg = PipelineConfig(scheme="hanayo", num_devices=4,
                                 num_microbatches=b, data_parallel=2)
            sched = build_schedule(cfg)
            costs = stage_costs(tiny_model(num_layers=16),
                                sched.num_stages, cluster.device, 2)
            program = compile_cluster_program(sched, cluster, costs, d=2)
            return ExecutablePlan.lower(program).plan_key

        assert key_for(make_fc(8)) == key_for(make_tacc(8))
        assert key_for(make_fc(8)) != key_for(make_fc(8), b=8)

    def test_models_share_a_shape_and_leave_no_trace_in_each_other(self):
        """The model is a re-bind axis: two models of one pipeline
        shape build it once, and which of them donated it is invisible
        — measuring ``[bert, gpt]`` and ``[gpt, bert]`` from a cleared
        cache yields identical records, field for field."""
        from repro.analysis import (
            HybridLayout,
            HybridRequest,
            measure_hybrid_throughput_batch,
            plan_cache,
        )
        from repro.models import gpt_128
        cache = plan_cache()
        clusters = (make_fc(8), make_tacc(8))

        def requests(models):
            return [HybridRequest("hanayo", cluster, model,
                                  HybridLayout(*layout), 8, w=2,
                                  microbatch_size=mb, contention=contend)
                    for model in models
                    for layout, mb, contend in (
                        ((1, 8, 1), 1, False), ((1, 4, 2), 2, False),
                        ((1, 2, 4), 1, True), ((2, 4, 1), 1, False),
                        ((2, 2, 2), 1, False))
                    for cluster in clusters]

        bert, gpt = bert_64(), gpt_128()
        forward = measure_hybrid_throughput_batch(requests([bert, gpt]))
        assert (cache.misses, cache.shape_misses, cache.shape_hits) \
            == (10, 5, 5)
        assert (len(cache), len(cache._shapes)) == (10, 5)
        cache.clear()
        backward = measure_hybrid_throughput_batch(requests([gpt, bert]))
        half = len(forward) // 2
        assert backward == forward[half:] + forward[:half]
        assert any(r.seq_per_s for r in forward)
        assert "5 shapes, 5 hits, 5 misses" in cache.describe()

    def test_microbatch_sizes_share_a_shape_and_leave_no_trace(self):
        """Micro-batch size is a size axis like the model: three sizes
        times two models of one pipeline shape build it once, measuring
        the sizes in either order yields identical records, and a
        schedule taken from the shared shape carries its own cell's
        config."""
        from repro.analysis import (
            HybridLayout,
            HybridRequest,
            build_hybrid_simulation,
            measure_hybrid_throughput_batch,
            plan_cache,
        )
        from repro.models import gpt_128
        cache = plan_cache()
        layout = HybridLayout(1, 4, 2)

        def requests(sizes):
            return [HybridRequest("hanayo", make_fc(8), model, layout, 4,
                                  w=2, microbatch_size=mb)
                    for mb in sizes for model in (bert_64(), gpt_128())]

        forward = measure_hybrid_throughput_batch(requests((1, 2, 4)))
        assert (cache.shape_misses, cache.shape_hits) == (1, 5)
        assert any(r.seq_per_s for r in forward)
        cache.clear()
        backward = measure_hybrid_throughput_batch(requests((4, 2, 1)))
        assert backward == forward[4:] + forward[2:4] + forward[:2]

        cache.clear()
        build_hybrid_simulation("hanayo", make_fc(8), bert_64(), layout, 4,
                                w=2, microbatch_size=1)
        cell = build_hybrid_simulation("hanayo", make_fc(8), bert_64(),
                                       layout, 4, w=2, microbatch_size=2)
        assert cache.shape_hits == 1
        assert cell.schedule.config == cell.cfg
        assert cell.schedule.config.microbatch_size == 2

    def test_shared_shape_is_immutable_and_bindings_do_not_alias(self):
        """A consumer that mutates action lists in place raises on the
        shared shape and cannot reach a sibling model's program."""
        from repro.analysis import plan_cache
        from repro.analysis.throughput import ThroughputRequest, plan_key
        from repro.config import RunConfig
        from repro.models import gpt_128
        cache = plan_cache()
        entries = []
        for model in (tiny_model(num_layers=16), gpt_128()):
            measure_throughput("hanayo", make_fc(4), model, p=4,
                               num_microbatches=4)
            entries.append(cache.get(plan_key(ThroughputRequest(
                "hanayo", make_fc(4), model, 4, 4), RunConfig())))
        first, second = entries
        shape = first.shape
        assert shape is second.shape and shape.schedule is first.schedule
        with pytest.raises(AttributeError):
            shape.program.actions[0].append(None)
        with pytest.raises(TypeError):
            shape.program.ops[None] = None
        with pytest.raises(TypeError):
            del shape.program.deps[next(iter(shape.program.deps))]
        # ... and the donor's own program reads the same frozen views
        with pytest.raises(TypeError):
            first.program.ops[None] = None
        before = list(second.program.actions[0])
        first.program.actions[0].clear()
        assert second.program.actions[0] == before
        assert list(shape.program.actions[0]) == before

    def test_capacity_is_not_a_structural_axis(self):
        """Capacity what-ifs re-time the cached plan (enforcement is an
        execute-time argument, never compiled into the structure)."""
        from repro.analysis import plan_cache
        cache = plan_cache()
        self._measure(make_fc(4))
        self._measure(make_fc(4), capacity_bytes=64 * 2**30)
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_bound(self):
        from repro.analysis import plan_cache
        cache = plan_cache()
        old_max, cache.maxsize = cache.maxsize, 2
        try:
            self._measure(make_fc(4))
            self._measure(make_fc(4), num_microbatches=8,
                          microbatch_size=1)
            self._measure(make_fc(4), d=2, p=2)
            assert len(cache) == 2
        finally:
            cache.maxsize = old_max

    def test_lru_order_and_evictions_counter(self):
        """A hit refreshes recency, so eviction discards the *least*
        recently used structure — and the counter records it."""
        from repro.analysis import plan_cache
        cache = plan_cache()
        old_max, cache.maxsize = cache.maxsize, 2
        try:
            self._measure(make_fc(4))                        # A: miss
            self._measure(make_fc(4), num_microbatches=8,
                          microbatch_size=1)                 # B: miss
            self._measure(make_fc(4))                        # A: hit -> MRU
            self._measure(make_fc(4), d=2, p=2)              # C evicts B
            assert cache.evictions == 1
            assert (cache.hits, cache.misses) == (1, 3)
            self._measure(make_fc(4))                        # A survived
            assert cache.hits == 2
            assert "1 evictions" in cache.describe()
        finally:
            cache.maxsize = old_max


class TestBatchUnits:
    """Structure-sharing misses ride the lockstep batch path."""

    def _misses(self, spec):
        return engine_mod.spec_jobs(spec, enumerate(spec.expand()))

    def test_cluster_lanes_form_one_unit(self):
        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)))
        units = engine_mod._batch_units(self._misses(spec))
        assert units and all(len(u) == 2 for u in units)
        # a unit's cells agree on every structural axis
        for unit in units:
            points = [job[1] for job in unit]
            assert len({(pt.scheme, pt.p, pt.num_microbatches,
                         pt.d, pt.w, pt.tp)
                        for pt in points}) == 1
        # and no cell is dropped or duplicated
        assert sorted(job[0] for u in units for job in u) == \
               list(range(len(spec.expand())))

    def test_single_cluster_units_are_singletons(self):
        units = engine_mod._batch_units(self._misses(tiny_spec()))
        assert units and all(len(u) == 1 for u in units)

    def test_microbatch_sizes_form_one_unit(self):
        """A unit is a shape: cells that differ only in micro-batch size
        are measured together, and the rows match per-batch sweeps."""
        spec = tiny_spec(total_batches=(8, 16))
        units = engine_mod._batch_units(self._misses(spec))
        assert units and all(len(u) == 2 for u in units)
        for unit in units:
            first, second = (job[1] for job in unit)
            assert first.microbatch_size != second.microbatch_size
            assert dataclasses.replace(
                first, microbatch_size=second.microbatch_size,
                total_batch=second.total_batch) == second

        def key(row):
            return (row.scheme, row.p, row.d, row.w, row.total_batch)

        reference = {key(row): row.to_dict()
                     for batch in spec.total_batches
                     for row in run_sweep(
                         tiny_spec(total_batches=(batch,))).rows}
        rows = run_sweep(spec).rows
        assert len(rows) == len(reference)
        for row in rows:
            assert row.to_dict() == reference[key(row)]

    def test_batched_rows_match_scalar(self, monkeypatch):
        """A two-cluster sweep (batch units) reproduces the per-cluster
        scalar sweeps cell for cell, and really took the batch path."""
        batch_calls = []
        real = engine_mod.measure_hybrid_throughput_batch

        def counted(requests):
            batch_calls.append(len(requests))
            return real(requests)

        monkeypatch.setattr(engine_mod, "measure_hybrid_throughput_batch",
                            counted)
        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)))
        batched = run_sweep(spec)
        assert batch_calls and all(n == 2 for n in batch_calls)

        reference = {}
        for cl in spec.clusters:
            for row in run_sweep(tiny_spec(clusters=(cl,))).rows:
                key = (row.scheme, row.cluster, row.p, row.d, row.w,
                       row.num_microbatches, row.microbatch_size)
                reference[key] = row.to_dict()
        assert len(batched.rows) == len(reference)
        for row in batched.rows:
            key = (row.scheme, row.cluster, row.p, row.d, row.w,
                   row.num_microbatches, row.microbatch_size)
            assert row.to_dict() == reference[key]

    def test_contention_sweep_matches_scalar(self):
        """A contention sweep's batch units reproduce the per-cell
        scalar contention measurements — divergent lanes stay in the
        contention driver, not back to the scalar loop."""
        from repro.analysis import measure_throughput
        from repro.config import RunConfig

        spec = tiny_spec(clusters=(make_fc(4), make_tacc(4)),
                         contention=True)
        table = run_sweep(spec)
        assert table.rows
        run = RunConfig(contention=True)
        clusters = {c.name: c for c in spec.clusters}
        for row in table.rows:
            want = measure_throughput(
                row.scheme, clusters[row.cluster], spec.models[0],
                p=row.p, d=row.d, w=row.w,
                num_microbatches=row.num_microbatches,
                microbatch_size=row.microbatch_size, run=run,
            )
            assert row.seq_per_s == want.seq_per_s
            assert row.bubble_ratio == want.bubble_ratio
            assert row.iteration_s == want.iteration_s
            assert row.peak_mem_bytes == want.peak_mem_bytes

    @staticmethod
    def _lane_matrix():
        """``(hybrid requests, flat contention requests)`` over two
        clusters — the multi-lane groups of the matrices below."""
        from repro.analysis import (
            HybridLayout,
            HybridRequest,
            ThroughputRequest,
        )

        model = tiny_model(num_layers=16)
        clusters = (make_fc(8), make_tacc(8))
        shapes = (("dapple", 1), ("hanayo", 2))
        hybrid = [
            HybridRequest(scheme=scheme, cluster=cluster, model=model,
                          layout=HybridLayout(tp=2, p=2, d=2),
                          num_microbatches=4, w=w)
            for scheme, w in shapes for cluster in clusters]
        # eight lanes a structure: narrower contention groups run
        # through the scalar core, which does build a lean result
        flat = [
            ThroughputRequest(scheme=scheme, cluster=cluster,
                              model=model, p=4, num_microbatches=4,
                              d=2, w=w, microbatch_size=size,
                              contention=True)
            for scheme, w in shapes
            for cluster in clusters for size in (1, 2, 4, 8)]
        return hybrid, flat

    @staticmethod
    def _scalar(request):
        from repro.analysis import measure_hybrid_throughput
        from repro.config import RunConfig

        return measure_hybrid_throughput(
            request.scheme, request.cluster, request.model,
            request.layout, request.num_microbatches, w=request.w,
            microbatch_size=request.microbatch_size,
            run=RunConfig(contention=request.contention))

    @pytest.mark.parametrize("lanes", ["hybrid", "contention"])
    def test_measurement_path_builds_no_event_objects(self, monkeypatch,
                                                      lanes):
        """The harness folds the runtime's lane-axis columns: with every
        event-object constructor on the path patched to raise,
        multi-lane groups still produce exactly the one-lane results."""
        import repro.runtime.events as events_mod
        from repro.analysis import measure_hybrid_throughput_batch

        hybrid, flat = self._lane_matrix()
        requests = hybrid if lanes == "hybrid" else flat
        want = [self._scalar(r) for r in requests]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("event object built while measuring")

        for name in ("_materialize", "TimedOp", "CollectiveEvent"):
            monkeypatch.setattr(events_mod, name, forbidden)
        got = measure_hybrid_throughput_batch(requests)
        assert all(r.sync_s > 0 for r in got)   # the DP rings are folded
        assert got == want

    def test_mixed_tp_batch_matches_separate_calls(self):
        """TP = 1 and TP > 1 requests interleaved in one call — with an
        infeasible lane in the middle — come back, lane for lane, as
        what separate calls (and one-lane calls) return."""
        from repro.analysis import (
            HybridLayout,
            HybridRequest,
            measure_hybrid_throughput_batch,
            measure_throughput_batch,
        )

        hybrid, flat = self._lane_matrix()
        assert measure_throughput_batch is measure_hybrid_throughput_batch
        want = (measure_hybrid_throughput_batch(hybrid)
                + measure_throughput_batch(flat))
        # TP = 4 does not fit TACC's nodes
        bad = HybridRequest("dapple", make_tacc(8), hybrid[0].model,
                            HybridLayout(tp=4, p=2, d=1), 4)
        # interleave: every third lane is a TP = 2 one
        order = list(range(len(hybrid), len(want)))
        for k in range(len(hybrid)):
            order.insert(3 * k, k)
        mixed = [(hybrid + flat)[k] for k in order]
        mixed.insert(5, bad)
        got = measure_hybrid_throughput_batch(mixed)
        rejected = got.pop(5)
        assert isinstance(rejected, ConfigError)
        assert "node size" in str(rejected)
        assert got == [want[k] for k in order]
        assert want[0] == self._scalar(hybrid[0])
        assert want[-1] == self._scalar(flat[-1])


class TestEngine:
    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert [r.to_dict() for r in serial.rows] == \
               [r.to_dict() for r in parallel.rows]

    def test_parallel_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec()
        run_sweep(spec, cache=cache, workers=2)
        warm = run_sweep(spec, cache=cache, workers=2)
        assert warm.stats.computed == 0

    def test_parity_with_direct_measurement(self):
        """Engine rows must equal direct measure_throughput calls."""
        cluster, model = make_fc(4), tiny_model(num_layers=16)
        cells = search_grid("hanayo", cluster, model,
                            layouts=((4, 1), (2, 2)), total_batch=8,
                            waves=(1, 2))
        assert cells
        for cell in cells:
            shape = split_batch(8, cell.d, cell.p, "hanayo")
            direct = measure_throughput(
                "hanayo", cluster, model, p=cell.p, d=cell.d, w=cell.w,
                num_microbatches=shape[0], microbatch_size=shape[1],
            )
            assert direct.seq_per_s == pytest.approx(cell.seq_per_s)
            assert direct.bubble_ratio == pytest.approx(cell.bubble_ratio)
            assert direct.peak_mem_bytes == cell.peak_mem_bytes

    def test_search_grid_oversized_layout_raises(self):
        with pytest.raises(ConfigError, match="exceeds"):
            search_grid("gpipe", make_fc(4), tiny_model(),
                        layouts=((4, 2),), total_batch=8)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="empty"):
            tiny_spec(schemes=())
        with pytest.raises(ConfigError, match="unknown scheme"):
            tiny_spec(schemes=("warp-drive",))
        with pytest.raises(ConfigError, match="layout"):
            tiny_spec(layouts=((0, 1),))
        with pytest.raises(ConfigError, match="overlap"):
            tiny_spec(overlap="guess")
        with pytest.raises(ConfigError, match="tensor_parallel"):
            tiny_spec(tensor_parallel=(0,))
        for field, bad in (("total_batches", (8, 0)), ("waves", (0,)),
                           ("total_batches", (-1,))):
            with pytest.raises(ConfigError, match=field):
                tiny_spec(**{field: bad})
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="target_microbatches"):
                tiny_spec(target_microbatches=bad)

    def test_cli_rejects_non_positive_sizes(self, capsys):
        base = ["sweep", "--clusters", "FC", "--model", "tiny", "-n", "4",
                "--layouts", "4x1"]
        for extra in (["--batch", "0"], ["--batch", "8", "--waves", "0"],
                      ["--batch", "8", "--target-microbatches", "0"],
                      ["--batch", "8", "--target-microbatches", "-1"]):
            assert cli_main(base + extra) == 2, extra
            assert "error:" in capsys.readouterr().err
        # the --dp/--tp layout derivation divides by these: a ConfigError
        # naming the field, never a ZeroDivisionError
        for extra, field in ((["--dp", "0"], "dp"),
                             (["--tp", "0", "2"], "tp")):
            assert cli_main(["sweep", "--clusters", "FC", "--model", "tiny",
                             "-n", "4", "--batch", "8", *extra]) == 2, extra
            assert f"error: query field {field!r}" in capsys.readouterr().err


class TestRunSweepHooks:
    """``run_sweep``'s ``progress`` and ``measure`` parameters."""

    def test_progress_rises_once_per_unit(self, tmp_path):
        spec = tiny_spec()
        points = spec.expand()
        units = engine_mod._batch_units(
            engine_mod.spec_jobs(spec, enumerate(points)))
        calls = []
        cache = ResultCache(tmp_path / "c")
        run_sweep(spec, cache=cache,
                  progress=lambda done, total: calls.append((done, total)))
        assert calls == [(done, len(points)) for done in
                         itertools.accumulate(map(len, units))]
        assert calls[-1] == (len(points), len(points))
        calls.clear()
        run_sweep(spec, cache=cache,
                  progress=lambda done, total: calls.append((done, total)))
        assert calls == []

    def test_measure_sees_every_unit(self):
        spec = tiny_spec()
        seen = []

        def measure(requests):
            seen.append(len(requests))
            return engine_mod.measure_hybrid_throughput_batch(requests)

        table = run_sweep(spec, measure=measure)
        assert seen == [len(unit) for unit in engine_mod._batch_units(
            engine_mod.spec_jobs(spec, enumerate(spec.expand())))]
        assert sum(seen) == table.stats.total == table.stats.computed
        assert [r.to_dict() for r in table.rows] == \
               [r.to_dict() for r in run_sweep(spec).rows]


class TestTable:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(tiny_spec())

    def test_filter_and_best(self, table):
        hanayo = table.filter(scheme="hanayo")
        assert hanayo.rows and all(r.scheme == "hanayo" for r in hanayo)
        best = table.best(scheme="hanayo")
        assert best.throughput == max(r.throughput for r in hanayo)
        with pytest.raises(ConfigError, match="unknown sweep filter"):
            table.filter(nonsense=1)
        with pytest.raises(ConfigError, match="unknown sweep field"):
            table.best_per("nonsense")

    def test_every_column_filters(self, table):
        """Result columns are properties over the row's record, and
        filter / best_per accept them like the coordinates."""
        assert table.filter(oom=False).rows == [r for r in table
                                                if not r.oom]
        assert table.filter(statically_pruned=False).rows == table.rows
        assert table.filter(cached=False, tp=1).rows == table.rows
        assert set(table.best_per("oom")) == {False}
        fastest = table.filter(seq_per_s=table.best().seq_per_s)
        assert table.best() in fastest.rows
        with pytest.raises(ConfigError, match="no live sweep cell"):
            table.best(p=64)

    def test_best_per_scheme(self, table):
        winners = table.best_per("scheme")
        assert set(winners) == {"gpipe", "dapple", "hanayo"}
        for scheme, row in winners.items():
            assert row.throughput == table.best(scheme=scheme).throughput

    def test_csv_roundtrip(self, table, tmp_path):
        import csv as csv_mod
        path = tmp_path / "sweep.csv"
        table.to_csv(path)
        with open(path) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == len(table.rows)
        assert float(rows[0]["seq_per_s"]) == pytest.approx(
            table.rows[0].seq_per_s)

    def test_json_roundtrip(self, table, tmp_path):
        path = tmp_path / "sweep.json"
        table.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["stats"]["total"] == table.stats.total
        assert len(payload["rows"]) == len(table.rows)

    def test_payload_is_the_json_export(self):
        """``payload()`` is what ``to_json`` renders, on a grid holding
        a live, an OOM and an infeasible cell; it is a fresh dict."""
        spec = mixed_spec()
        table = run_sweep(spec)
        assert table.stats.infeasible == 1
        assert any(r.oom for r in table) and not all(r.oom for r in table)
        payload = table.payload()
        assert payload == json.loads(table.to_json())
        payload["stats"]["total"] = -1
        payload["rows"][0]["seq_per_s"] = -1.0
        assert table.stats.total == len(spec.expand())
        assert table.payload() == json.loads(table.to_json())
        assert all(r.record["seq_per_s"] != -1.0 for r in table)

    def test_warm_sweep_builds_no_result_objects(self, tmp_path,
                                                 monkeypatch):
        """A cached sweep reads each row's record in place: it never
        constructs a ``ThroughputResult`` or a ``PipelineConfig``."""
        from repro.analysis.result import ThroughputResult
        from repro.config import PipelineConfig

        cache = ResultCache(tmp_path / "c")
        spec = mixed_spec()
        cold = run_sweep(spec, cache=cache)

        def refuse(*args, **kwargs):
            raise AssertionError("a cached sweep built a result object")

        monkeypatch.setattr(ThroughputResult, "__init__", refuse)
        monkeypatch.setattr(PipelineConfig, "__init__", refuse)
        warm = run_sweep(spec, cache=cache)
        assert warm.stats.cached == warm.stats.total == cold.stats.total
        assert warm.to_csv() and json.loads(warm.to_json())["rows"]
        assert "*" in warm.format(title="warm")
        assert warm.best().throughput == cold.best().throughput > 0

    def test_format_marks_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = tiny_spec(schemes=("gpipe",), waves=(1,))
        run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        text = warm.format(title="warm")
        assert "warm" in text and "*" in text


class TestCLI:
    def run_cli(self, capsys, *extra) -> str:
        rc = cli_main([
            "sweep", "--clusters", "FC", "--model", "tiny",
            "-n", "4", "--batch", "8", "--layouts", "4x1,2x2",
            "--schemes", "gpipe", "dapple", "hanayo", *extra,
        ])
        assert rc == 0
        return capsys.readouterr().out

    def test_parallel_multi_scheme_grid(self, capsys, tmp_path):
        out = self.run_cli(capsys, "--cache", str(tmp_path / "c"),
                           "-j", "2", "--csv", str(tmp_path / "s.csv"))
        assert "gpipe" in out and "dapple" in out and "hanayo" in out
        assert "0 cached" in out
        assert (tmp_path / "s.csv").exists()

    def test_second_invocation_zero_measure_calls(self, capsys, tmp_path,
                                                  counter):
        """Acceptance: warm re-run of `repro sweep` does no simulation."""
        self.run_cli(capsys, "--cache", str(tmp_path / "c"))
        assert len(counter) > 0
        counter.clear()
        out = self.run_cli(capsys, "--cache", str(tmp_path / "c"))
        assert counter == []
        assert "0 computed" in out

    def test_bad_layouts_rejected(self, capsys):
        rc = cli_main(["sweep", "--layouts", "8by1"])
        assert rc == 2
        assert "bad layout" in capsys.readouterr().err

    def test_oversized_explicit_layout_errors(self, capsys):
        rc = cli_main(["sweep", "--clusters", "FC", "--model", "tiny",
                       "-n", "4", "--batch", "8", "--layouts", "8x1"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err


def test_dump_diff_finds_exactly_the_edited_record(tmp_path):
    """``tools/dump_diff.py``: a grid's dump diffs clean against itself,
    and one edited record is one mismatch, named by its cell."""
    tool = os.path.join(os.path.dirname(__file__), "../tools/dump_diff.py")

    def run(*args):
        return subprocess.run([sys.executable, tool, *map(str, args)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=""))

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("dump", a, "--grid", "small")
    clean = run("diff", a, a)
    assert (clean.returncode, clean.stdout) == (0, "0 mismatching records\n")
    lines = a.read_text().splitlines()
    record = json.loads(lines[3])
    lines[3] = json.dumps(dict(record, seq_per_s=2 * record["seq_per_s"]))
    b.write_text("\n".join(lines) + "\n")
    edited = run("diff", a, b)
    assert edited.returncode == 1
    [found, count] = edited.stdout.splitlines()
    assert found.startswith(f"line 4: scheme={record['scheme']} ")
    assert found.endswith(f": seq_per_s {record['seq_per_s']!r} != "
                          f"{2 * record['seq_per_s']!r}")
    assert count == "1 mismatching records"
