"""Unit tests for the compression primitives: spec, sparsify, quantize,
and the stateful pipeline (error feedback, byte ledger, checkpoint state)."""

import numpy as np
import pytest

from repro.compress import (
    DOWNLINK_SLOT,
    CompressionSpec,
    UpdateCompressor,
    dequantize,
    quantize_stochastic,
    randk_indices,
    scatter,
    topk_indices,
)


class TestCompressionSpec:
    def test_default_is_identity(self):
        assert CompressionSpec().is_identity
        assert CompressionSpec.none().is_identity

    def test_lossy_specs_not_identity(self):
        assert not CompressionSpec(sparsify="topk", fraction=0.1).is_identity
        assert not CompressionSpec(quantize_bits=8).is_identity

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CompressionSpec(sparsify="magic")
        with pytest.raises(ValueError):
            CompressionSpec(fraction=0.0)
        with pytest.raises(ValueError):
            CompressionSpec(fraction=1.5)
        with pytest.raises(ValueError):
            CompressionSpec(quantize_bits=1)
        with pytest.raises(ValueError):
            CompressionSpec(quantize_bits=32)

    def test_rejects_noop_modifiers_on_identity_spec(self):
        # error_feedback/downlink silently do nothing without a lossy
        # stage; the spec refuses the combination outright.
        with pytest.raises(ValueError, match="identity"):
            CompressionSpec(error_feedback=True)
        with pytest.raises(ValueError, match="identity"):
            CompressionSpec(downlink=True)
        # With any lossy stage both flags are meaningful.
        CompressionSpec(quantize_bits=8, error_feedback=True, downlink=True)

    def test_keep_count(self):
        spec = CompressionSpec(sparsify="topk", fraction=0.05)
        assert spec.keep_count(1000) == 50
        assert spec.keep_count(10) == 1   # ceil(0.5) with floor at 1
        assert spec.keep_count(1) == 1
        assert CompressionSpec().keep_count(1000) == 1000

    def test_payload_bytes_dense(self):
        assert CompressionSpec().payload_bytes(100) == 800

    def test_payload_bytes_sparse(self):
        spec = CompressionSpec(sparsify="topk", fraction=0.1)
        # Elias-Fano support of 10 in 100 (L = 3): 30 low + 10 + 12 + 1
        # high bits -> 7B, + 10 values * 8B
        assert spec.payload_bytes(100) == 7 + 10 * 8

    def test_payload_bytes_sparse_quantized(self):
        spec = CompressionSpec(sparsify="topk", fraction=0.1, quantize_bits=8)
        # 7B support + scale 8B + 10 levels * 1B
        assert spec.payload_bytes(100) == 7 + 8 + 10

    def test_payload_bytes_odd_bit_packing(self):
        spec = CompressionSpec(quantize_bits=3)
        # 10 values * 3 bits = 30 bits -> 4 bytes, + 8B scale
        assert spec.payload_bytes(10) == 8 + 4


class TestSparsify:
    def test_topk_selects_largest_magnitudes(self):
        v = np.array([0.1, -5.0, 2.0, 0.0, -3.0])
        np.testing.assert_array_equal(topk_indices(v, 2), [1, 4])

    def test_topk_indices_sorted_and_full(self):
        v = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(topk_indices(v, 3), [0, 1, 2])

    def test_topk_tie_break_deterministic(self):
        v = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(topk_indices(v, 2), [0, 1])

    def test_topk_matches_a_stable_sort_on_ties(self):
        """The partition-based selection keeps what a stable sort on
        -|v| keeps: every magnitude above the k-th, then the
        lowest-index ties (NaN last, as the sort ranks it)."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            v = rng.integers(-3, 4, n).astype(float)
            v[rng.random(n) < 0.1] = np.nan
            v[rng.random(n) < 0.1] = -np.inf
            k = int(rng.integers(1, n + 1))
            expected = np.sort(np.argsort(-np.abs(v), kind="stable")[:k])
            np.testing.assert_array_equal(topk_indices(v, k), expected)

    def test_topk_rejects_bad_k(self):
        with pytest.raises(ValueError):
            topk_indices(np.ones(3), 0)
        with pytest.raises(ValueError):
            topk_indices(np.ones(3), 4)

    def test_randk_is_sorted_unique_in_range(self):
        rng = np.random.default_rng(0)
        idx = randk_indices(100, 17, rng)
        assert len(idx) == 17
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 100

    def test_randk_deterministic_given_rng(self):
        a = randk_indices(50, 10, np.random.default_rng(7))
        b = randk_indices(50, 10, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_scatter_round_trip(self):
        v = np.array([0.0, 2.0, 0.0, -1.0])
        idx = np.array([1, 3])
        np.testing.assert_array_equal(scatter(idx, v[idx], 4), v)

    def test_scatter_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scatter(np.array([4]), np.array([1.0]), 4)


class TestQuantize:
    def test_round_trip_error_bounded(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(500) * 3.0
        block = quantize_stochastic(v, 8, rng)
        back = dequantize(block)
        bound = block.scale / ((1 << 7) - 1)
        assert np.max(np.abs(back - v)) <= bound + 1e-12

    def test_stochastic_rounding_unbiased(self):
        v = np.full(20_000, 0.3)
        rng = np.random.default_rng(1)
        block = quantize_stochastic(v, 4, rng)
        back = dequantize(block)
        # Mean of many stochastic roundings converges to the true value.
        assert np.mean(back) == pytest.approx(0.3, rel=0.02)

    def test_extremes_map_exactly(self):
        v = np.array([-2.0, 0.0, 2.0])
        block = quantize_stochastic(v, 8, np.random.default_rng(0))
        back = dequantize(block)
        np.testing.assert_allclose(back[[0, 2]], [-2.0, 2.0])
        assert back[1] == 0.0

    def test_zero_vector(self):
        block = quantize_stochastic(np.zeros(5), 8, np.random.default_rng(0))
        assert block.scale == 0.0
        np.testing.assert_array_equal(dequantize(block), np.zeros(5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            quantize_stochastic(np.array([1.0, np.nan]), 8, np.random.default_rng(0))

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_stochastic(np.ones(3), 1, np.random.default_rng(0))


class TestUpdateCompressor:
    def spec(self, **kwargs):
        defaults = dict(sparsify="topk", fraction=0.25, error_feedback=True)
        defaults.update(kwargs)
        return CompressionSpec(**defaults)

    def test_identity_returns_input_bytes_dense(self):
        comp = UpdateCompressor(CompressionSpec.none(), 3, 8)
        v = np.arange(8.0)
        out = comp.compress_uplink(0, v)
        np.testing.assert_array_equal(out.dense, v)
        assert out.nbytes == 64
        assert out.kept == 8

    def test_topk_keeps_largest(self):
        comp = UpdateCompressor(self.spec(error_feedback=False), 2, 8)
        v = np.array([0.0, 9.0, 0.1, 0.0, -8.0, 0.2, 0.0, 0.0])
        out = comp.compress_uplink(0, v)
        np.testing.assert_array_equal(
            out.dense, [0.0, 9.0, 0.0, 0.0, -8.0, 0.0, 0.0, 0.0]
        )
        assert out.kept == 2
        # Support of 2 in 8 (L = 2): 4 low + 2 + 1 + 1 high bits -> 1B.
        assert out.nbytes == 1 + 2 * 8

    def test_error_feedback_telescopes(self):
        comp = UpdateCompressor(self.spec(), 1, 4)
        v1 = np.array([1.0, 10.0, 0.0, 0.0])
        out1 = comp.compress_uplink(0, v1)
        # Discarded mass lands in the residual...
        np.testing.assert_array_equal(comp.residual(0), v1 - out1.dense)
        # ... and is added to the next payload before selection.
        v2 = np.array([0.0, 0.0, 0.0, 0.0])
        out2 = comp.compress_uplink(0, v2)
        np.testing.assert_array_equal(out2.dense, [1.0, 0.0, 0.0, 0.0])

    def test_residuals_are_per_silo(self):
        comp = UpdateCompressor(self.spec(), 2, 4)
        comp.compress_uplink(0, np.array([1.0, 10.0, 0.0, 0.0]))
        assert comp.residual(1) is None
        comp.compress_downlink(np.array([0.0, 0.0, 2.0, 20.0]))
        np.testing.assert_array_equal(
            comp.residual(DOWNLINK_SLOT), [0.0, 0.0, 2.0, 0.0]
        )

    def test_compress_matches_analytic_bytes(self):
        for spec in [
            CompressionSpec(),
            CompressionSpec(sparsify="topk", fraction=0.3),
            CompressionSpec(sparsify="randk", fraction=0.3, quantize_bits=4),
            CompressionSpec(quantize_bits=8),
        ]:
            comp = UpdateCompressor(spec, 1, 40)
            out = comp.compress_uplink(0, np.linspace(-1, 1, 40))
            assert out.nbytes == spec.payload_bytes(40), spec

    def test_draw_support_requires_randk(self):
        comp = UpdateCompressor(self.spec(), 1, 8)
        with pytest.raises(ValueError):
            comp.draw_support(8)
        randk = UpdateCompressor(
            CompressionSpec(sparsify="randk", fraction=0.5), 1, 8
        )
        assert len(randk.draw_support(8)) == 4

    def test_unknown_silo_rejected(self):
        comp = UpdateCompressor(self.spec(), 2, 4)
        with pytest.raises(ValueError):
            comp.compress_uplink(2, np.zeros(4))

    def test_state_dict_round_trip_bit_identical(self):
        spec = CompressionSpec(
            sparsify="randk", fraction=0.5, quantize_bits=8, error_feedback=True
        )
        a = UpdateCompressor(spec, 2, 16)
        rng = np.random.default_rng(3)
        for r in range(3):
            for s in range(2):
                a.compress_uplink(s, rng.standard_normal(16))
        state = a.state_dict()

        b = UpdateCompressor(spec, 2, 16)
        b.load_state(state)
        payload = np.arange(16.0)
        out_a = a.compress_uplink(0, payload)
        out_b = b.compress_uplink(0, payload)
        np.testing.assert_array_equal(out_a.dense, out_b.dense)
        assert out_a.nbytes == out_b.nbytes

    def test_state_survives_json_style_keys(self):
        # Checkpoints round-trip through JSON, which stringifies dict keys.
        spec = self.spec()
        a = UpdateCompressor(spec, 1, 4)
        a.compress_uplink(0, np.array([1.0, 10.0, 0.0, 0.0]))
        state = a.state_dict()
        state["residuals"] = {str(k): v for k, v in state["residuals"].items()}
        b = UpdateCompressor(spec, 1, 4)
        b.load_state(state)
        np.testing.assert_array_equal(b.residual(0), a.residual(0))
