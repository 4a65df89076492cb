"""Array backend registry: NumPy is the one fold backend."""

import numpy as np
import pytest

from repro.nn.backend import BACKENDS, ArrayBackend, get_backend, validate_backend


class TestNumpyBackend:
    def test_weighted_sum_matches_matmul_bitwise(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, 37)
        rows = rng.standard_normal((37, 11))
        backend = get_backend("numpy")
        assert backend.weighted_sum(w, rows).tobytes() == (w @ rows).tobytes()

    def test_casts_weights_to_contiguous_float64(self):
        backend = get_backend("numpy")
        w = np.ones(4, dtype=np.float32)[::2]  # non-contiguous, wrong dtype
        rows = np.ones((2, 3))
        out = backend.weighted_sum(w, rows)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.full(3, 2.0))


class TestRegistry:
    def test_unknown_backend(self):
        # NumPy is the one name that resolves; it needs no optional import.
        assert validate_backend("numpy") == "numpy"
        assert get_backend().name == "numpy"
        for name in ("jax", "torch", "cupy"):
            with pytest.raises(ValueError, match="unknown.*choose from numpy"):
                get_backend(name)
            with pytest.raises(ValueError, match="unknown"):
                validate_backend(name)

    def test_backends_pinned_to_spec_constant(self):
        # api.spec keeps its own literal copy (import-light idiom); the
        # two must never drift.
        from repro.api.spec import ARRAY_BACKENDS

        assert tuple(ARRAY_BACKENDS) == tuple(BACKENDS)

    def test_frozen(self):
        backend = get_backend("numpy")
        assert isinstance(backend, ArrayBackend)
        with pytest.raises(Exception):
            backend.name = "other"
