"""Array backend registry: numpy today, torch/cupy gated behind imports."""

import numpy as np
import pytest

from repro.nn.backend import (
    BACKENDS,
    ArrayBackend,
    BackendUnavailable,
    available_backends,
    get_backend,
    validate_backend,
)


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

    def test_round_trip_hooks(self):
        backend = get_backend("numpy")
        a = np.arange(6.0)
        assert backend.to_numpy(backend.from_numpy(a)) is a


class TestRegistry:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown"):
            get_backend("jax")
        with pytest.raises(ValueError, match="unknown"):
            validate_backend("jax")

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_backends_pinned_to_spec_constant(self):
        # api.spec keeps its own literal copy (import-light idiom); the
        # two must never drift.
        from repro.api.spec import ARRAY_BACKENDS

        assert tuple(ARRAY_BACKENDS) == tuple(BACKENDS)

    def test_gated_backends_raise_without_install(self):
        for name in ("torch", "cupy"):
            try:
                __import__(name)
            except ImportError:
                with pytest.raises(BackendUnavailable):
                    get_backend(name)
            else:  # pragma: no cover - accelerator-equipped machines
                backend = get_backend(name)
                rng = np.random.default_rng(0)
                w = rng.uniform(0, 1, 8)
                rows = rng.standard_normal((8, 3))
                assert np.allclose(backend.weighted_sum(w, rows), w @ rows)

    def test_frozen(self):
        backend = get_backend("numpy")
        assert isinstance(backend, ArrayBackend)
        with pytest.raises(Exception):
            backend.name = "other"
