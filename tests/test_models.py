"""Model specs, the zoo, partitioning, and stage cost lowering."""

import pytest

from repro.errors import ConfigError
from repro.models import (
    A100_40G,
    V100_32G,
    LayerKind,
    ModelSpec,
    bert_64,
    gpt_128,
    partition_layers,
    stage_costs,
    tiny_model,
)
from repro.models.costs import BACKWARD_RATIO, BYTES_PER_PARAM
from repro.models.zoo import MODELS


class TestModelSpec:
    def test_paper_bert_shape(self):
        m = bert_64()
        assert (m.num_layers, m.hidden, m.heads) == (64, 2560, 64)
        # ~5B parameters for the paper's BERT-style model
        assert 4e9 < m.param_count < 7e9

    def test_paper_gpt_shape(self):
        m = gpt_128()
        assert (m.num_layers, m.hidden, m.heads) == (128, 1024, 16)
        assert 1e9 < m.param_count < 3e9

    def test_layer_stack_order(self):
        m = tiny_model(num_layers=3)
        kinds = [l.kind for l in m.layers]
        assert kinds[0] is LayerKind.EMBEDDING
        assert kinds[-1] is LayerKind.HEAD
        assert all(k is LayerKind.TRANSFORMER for k in kinds[1:-1])

    def test_invalid_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelSpec(name="x", hidden=10, num_layers=2, heads=3, seq_len=4)

    def test_degenerate(self):
        with pytest.raises(ConfigError):
            ModelSpec(name="x", hidden=8, num_layers=0, heads=2, seq_len=4)

    def test_boundary_bytes_scales_with_microbatch(self):
        m = tiny_model()
        assert m.boundary_bytes(4) == 4 * m.boundary_bytes(1)

    def test_flops_positive(self):
        assert bert_64().flops_per_seq_forward() > 0


class TestPartitionLayers:
    def test_exact_cover(self):
        m = bert_64()
        for s in (1, 2, 8, 16, 33):
            stages = partition_layers(m, s)
            assert len(stages) == s
            assert sum(len(g) for g in stages) == len(m.layers)

    def test_contiguity_preserves_order(self):
        m = tiny_model(num_layers=6)
        stages = partition_layers(m, 4)
        flat = [l for g in stages for l in g]
        assert flat == m.layers

    def test_too_many_stages(self):
        m = tiny_model(num_layers=4)  # 6 layers total
        with pytest.raises(ConfigError, match="cannot split"):
            partition_layers(m, 7)

    def test_zero_stages(self):
        with pytest.raises(ConfigError):
            partition_layers(tiny_model(), 0)

    def test_balance_within_factor_two(self):
        m = bert_64()
        stages = partition_layers(m, 16)
        costs = [sum(l.flops_per_token() for l in g) for g in stages]
        nonzero = [c for c in costs if c > 0]
        assert max(nonzero) <= 2.5 * (sum(nonzero) / len(nonzero))


class TestStageCosts:
    def test_balanced_is_uniform(self):
        sc = stage_costs(bert_64(), 8, A100_40G)
        assert len(set(sc.forward)) == 1
        assert len(set(sc.weight_bytes)) == 1

    def test_backward_ratio(self):
        sc = stage_costs(bert_64(), 8, A100_40G)
        for f, b in zip(sc.forward, sc.backward):
            assert b == pytest.approx(BACKWARD_RATIO * f)

    def test_totals_independent_of_stage_count(self):
        m = bert_64()
        a = stage_costs(m, 8, A100_40G)
        b = stage_costs(m, 32, A100_40G)
        assert sum(a.forward) == pytest.approx(sum(b.forward))
        assert sum(a.weight_bytes) == pytest.approx(sum(b.weight_bytes))

    def test_weight_bytes_match_param_count(self):
        m = bert_64()
        sc = stage_costs(m, 4, A100_40G)
        assert sum(sc.weight_bytes) == pytest.approx(
            m.param_count * BYTES_PER_PARAM
        )

    def test_unbalanced_varies(self):
        sc = stage_costs(bert_64(), 16, A100_40G, balanced=False)
        assert len(set(sc.forward)) > 1

    def test_microbatch_scaling(self):
        a = stage_costs(bert_64(), 8, A100_40G, microbatch_size=1)
        b = stage_costs(bert_64(), 8, A100_40G, microbatch_size=4)
        assert b.forward[0] == pytest.approx(4 * a.forward[0])
        assert b.boundary_bytes == pytest.approx(4 * a.boundary_bytes)

    def test_v100_slower_than_a100(self):
        a = stage_costs(bert_64(), 8, A100_40G)
        v = stage_costs(bert_64(), 8, V100_32G)
        assert v.forward[0] > a.forward[0]

    def test_bad_microbatch(self):
        with pytest.raises(ConfigError):
            stage_costs(bert_64(), 8, A100_40G, microbatch_size=0)

    @pytest.mark.parametrize("num_stages", [0, 11])
    def test_balanced_rejects_like_the_partition(self, num_stages):
        """``balanced=True`` never partitions, but refuses exactly what
        the partition would, with its words."""
        spec = tiny_model(num_layers=8)
        with pytest.raises(ConfigError) as expected:
            partition_layers(spec, num_stages)
        with pytest.raises(ConfigError) as got:
            stage_costs(spec, num_stages, A100_40G, balanced=True)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_balanced_equals_the_per_layer_sums(self, name):
        """Per-model totals change no float: the balanced costs equal
        the per-layer summation over ``spec.layers`` at every stage
        count, micro-batch size and recompute mode."""
        spec = MODELS[name]()
        layers = spec.layers
        for num_stages in (1, 2, 4, 8, 10):
            for mbs in (1, 2, 3, 8):
                for recompute in (False, True):
                    tokens = spec.seq_len * mbs
                    flops = tokens * sum(l.flops_per_token() for l in layers)
                    seconds = flops / A100_40G.effective_flops / num_stages
                    act = (spec.boundary_bytes(mbs) if recompute else
                           tokens * sum(l.activation_bytes_per_token(
                               spec.bytes_per_el) for l in layers)
                           / num_stages)
                    ratio = BACKWARD_RATIO + recompute
                    sc = stage_costs(spec, num_stages, A100_40G, mbs,
                                     recompute=recompute)
                    assert sc.forward == (seconds,) * num_stages
                    assert sc.backward == (seconds * ratio,) * num_stages
                    assert sc.weight_bytes == (
                        spec.param_count / num_stages * BYTES_PER_PARAM,
                    ) * num_stages
                    assert sc.activation_bytes == (act,) * num_stages
