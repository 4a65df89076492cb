"""The array backend of the sharded engine's fold.

The engine folds each micro-batch of clipped rows into one partial
aggregate with a weighted partial sum, ``weights @ rows`` in float64.
NumPy is the one backend, and the one the bit-identity contract is
stated against; ``[engine] backend`` names it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrayBackend", "BACKENDS", "get_backend", "validate_backend"]

#: Names accepted by ``[engine] backend = ...``.
BACKENDS = ("numpy",)


@dataclass(frozen=True)
class ArrayBackend:
    """A named fold: the weighted partial sum the engine applies."""

    name: str

    def weighted_sum(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``weights @ rows`` in float64: the fold the sharded engine
        applies to every micro-batch of clipped rows."""
        return np.ascontiguousarray(weights, dtype=np.float64) @ rows


_NUMPY = ArrayBackend("numpy")


def validate_backend(name: str) -> str:
    """Check ``name`` against :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r}; choose from {', '.join(BACKENDS)}"
        )
    return name


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Resolve a backend by name."""
    validate_backend(name)
    return _NUMPY
