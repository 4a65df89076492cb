"""Pluggable ``xp``-style array backends for the sharded engine.

The engine folds each micro-batch of clipped rows into one partial
aggregate with a weighted partial sum.  This module makes the array
namespace behind that fold a named, swappable object instead of a hard
``numpy`` import:

* ``numpy`` -- the reference backend, always available, and the one the
  bit-identity contract is stated against;
* ``torch`` / ``cupy`` -- optional accelerator backends constructed
  only when their import succeeds.  They implement the same fold
  interface.

Nothing here installs or requires the optional packages: asking for an
absent backend raises :class:`BackendUnavailable` with an actionable
message, and :func:`available_backends` probes quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BackendUnavailable",
    "available_backends",
    "get_backend",
    "validate_backend",
]

#: Names accepted by ``[engine] backend = ...`` (probed lazily).
BACKENDS = ("numpy", "torch", "cupy")


class BackendUnavailable(RuntimeError):
    """Raised when a configured backend's package is not importable."""


@dataclass(frozen=True)
class ArrayBackend:
    """A named array namespace plus the numpy bridge the engine needs."""

    name: str
    xp: Any
    from_numpy: Callable[[np.ndarray], Any]
    to_numpy: Callable[[Any], np.ndarray]

    def weighted_sum(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``weights @ rows`` on the backend, returned as float64 numpy.

        This is the fold the sharded engine applies to every micro-batch
        of clipped rows; keeping it behind the backend means a GPU
        backend can keep the rows device-resident and ship only the
        ``(params,)`` partial back.
        """
        w = self.from_numpy(np.ascontiguousarray(weights, dtype=np.float64))
        r = self.from_numpy(rows)
        return np.asarray(self.to_numpy(self.xp.matmul(w, r)), dtype=np.float64)


def _numpy_backend() -> ArrayBackend:
    return ArrayBackend(
        name="numpy",
        xp=np,
        from_numpy=lambda a: a,
        to_numpy=np.asarray,
    )


def _torch_backend() -> ArrayBackend:
    try:
        import torch
    except ImportError as exc:
        raise BackendUnavailable(
            "backend 'torch' requires the optional torch package "
            "(not installed in this environment); use backend='numpy'"
        ) from exc
    return ArrayBackend(
        name="torch",
        xp=torch,
        from_numpy=torch.from_numpy,
        to_numpy=lambda t: t.detach().cpu().numpy(),
    )


def _cupy_backend() -> ArrayBackend:
    try:
        import cupy
    except ImportError as exc:
        raise BackendUnavailable(
            "backend 'cupy' requires the optional cupy package "
            "(not installed in this environment); use backend='numpy'"
        ) from exc
    return ArrayBackend(
        name="cupy",
        xp=cupy,
        from_numpy=cupy.asarray,
        to_numpy=cupy.asnumpy,
    )


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _numpy_backend,
    "torch": _torch_backend,
    "cupy": _cupy_backend,
}


def validate_backend(name: str) -> str:
    """Check ``name`` against the registry without importing anything."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; choose from {', '.join(BACKENDS)}"
        )
    return name


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Resolve a backend by name (raises :class:`BackendUnavailable` if
    the optional package backing it is missing)."""
    return _FACTORIES[validate_backend(name)]()


def available_backends() -> tuple[str, ...]:
    """The subset of :data:`BACKENDS` that can actually be constructed."""
    names = []
    for name in BACKENDS:
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        names.append(name)
    return tuple(names)

