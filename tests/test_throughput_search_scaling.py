"""The evaluation harness: throughput, config search, scaling."""

import pytest

from repro.analysis import (
    dp_allreduce_seconds,
    feasible_waves,
    layouts_for,
    measure_throughput,
    parallel_efficiency,
    search_grid,
    speedup,
    strong_scaling,
    weak_scaling,
)
from repro.cluster import get_cluster, make_fc, make_tacc
from repro.errors import ConfigError
from repro.models import bert_64, gpt_128, tiny_model


@pytest.fixture(scope="module")
def fc8():
    return make_fc(8)


class TestMeasureThroughput:
    def test_basic_fields(self, fc8):
        r = measure_throughput("dapple", fc8, bert_64(), p=8,
                               num_microbatches=8)
        assert r.seq_per_s > 0
        assert 0 < r.bubble_ratio < 1
        assert r.peak_mem_bytes > 0
        assert not r.oom
        assert "dapple" in r.describe()

    def test_layout_exceeding_cluster(self, fc8):
        with pytest.raises(ConfigError, match="needs 16 devices; cluster has 8"):
            measure_throughput("dapple", fc8, bert_64(), p=8,
                               num_microbatches=8, d=2)

    def test_hanayo_beats_baselines_on_fc(self, fc8):
        base = measure_throughput("dapple", fc8, bert_64(), p=8,
                                  num_microbatches=8)
        wave = measure_throughput("hanayo", fc8, bert_64(), p=8,
                                  num_microbatches=8, w=2)
        assert wave.seq_per_s > base.seq_per_s

    def test_oom_reported_not_raised(self):
        """A model far too big for the modeled GPU returns OOM."""
        cluster = make_tacc(8)  # 40 GB cards
        huge = bert_64()
        r = measure_throughput("gpipe", cluster, huge, p=8,
                               num_microbatches=32, microbatch_size=8)
        assert r.oom
        assert r.seq_per_s is None
        assert r.oom_device is not None
        assert "OOM" in r.describe()

    def test_memory_enforcement_optional(self):
        cluster = make_tacc(8)
        r = measure_throughput("gpipe", cluster, bert_64(), p=8,
                               num_microbatches=32, microbatch_size=8,
                               enforce_memory=False)
        assert not r.oom

    def test_dp_overhead_positive(self, fc8):
        assert dp_allreduce_seconds(fc8, 4, 2, 1e9) > 0
        assert dp_allreduce_seconds(fc8, 4, 1, 1e9) == 0


class TestSearch:
    def test_feasible_waves_gated_by_layers(self):
        m = bert_64()  # 66 partitionable layers
        assert feasible_waves(m, 8) == [1, 2, 4]  # W=8 needs 128 stages
        assert feasible_waves(m, 4) == [1, 2, 4, 8]

    def test_grid_searches_waves_for_hanayo(self, fc8):
        cells = search_grid("hanayo", fc8, bert_64(),
                            layouts=((8, 1), (4, 2)),
                            total_batch=16)
        waves_seen = {(c.p, c.w) for c in cells}
        assert (8, 2) in waves_seen and (4, 4) in waves_seen

    def test_split_batch_rules(self):
        from repro.analysis.search import split_batch
        assert split_batch(16, 2, 4, "dapple") == (4, 2)  # B defaults to P
        assert split_batch(32, 1, 4, "dapple", target_microbatches=8) == (8, 4)
        assert split_batch(1, 2, 4, "dapple") is None
        # fairness: D must divide the total batch exactly
        assert split_batch(10, 4, 4, "dapple") is None
        # fairness: b rebalances to a divisor instead of dropping work
        assert split_batch(48, 2, 4, "dapple", target_microbatches=16) == (12, 2)
        # bidirectional needs an even micro-batch count; an odd
        # per-pipeline batch has no fair even split and is rejected
        assert split_batch(6, 2, 4, "chimera") is None
        assert split_batch(12, 2, 4, "chimera") == (2, 3)
        assert split_batch(1, 1, 4, "chimera") is None

    def test_split_batch_never_drops_work(self):
        """Every accepted cell processes exactly total_batch sequences."""
        from repro.analysis.search import split_batch
        for scheme in ("dapple", "chimera"):
            for total in range(1, 65):
                for d in (1, 2, 3, 4):
                    for target in (None, 8, 16):
                        shape = split_batch(total, d, 4, scheme, target)
                        if shape is None:
                            continue
                        b, mb = shape
                        assert b * mb * d == total, (scheme, total, d, target)
                        if scheme == "chimera":
                            assert b % 2 == 0

    def test_best_skips_oom(self):
        cluster = make_tacc(8)
        table = search_grid("gpipe", cluster, bert_64(),
                            layouts=((8, 1),),
                            total_batch=256, target_microbatches=32)
        assert table.rows and all(c.oom for c in table)
        with pytest.raises(ConfigError, match="OOM"):
            table.best()

    def test_layouts_for(self):
        assert layouts_for(32) == ((32, 1), (16, 2), (8, 4), (4, 8))
        assert layouts_for(8) == ((8, 1), (4, 2))


class TestScaling:
    def test_weak_scaling_throughput_grows(self):
        out = weak_scaling(("dapple", "hanayo"), make_tacc, gpt_128(),
                           device_counts=(4, 8), base_batch=8)
        for scheme, points in out.items():
            tps = [p.throughput for p in points]
            assert tps[1] > tps[0], scheme

    def test_weak_scaling_efficiency_near_one(self):
        out = weak_scaling(("hanayo",), make_tacc, gpt_128(),
                           device_counts=(4, 8), base_batch=8)
        effs = parallel_efficiency(out["hanayo"])
        assert all(e > 0.8 for e in effs)

    def test_strong_scaling_speedup(self):
        out = strong_scaling(("hanayo",), make_tacc, gpt_128(),
                             device_counts=(4, 8), total_batch=8)
        s = speedup(out["hanayo"])
        assert s[0] == pytest.approx(1.0)
        assert s[1] > 1.0

    def test_empty_points_handled(self):
        assert parallel_efficiency([]) == []
        assert speedup([]) == []
