"""L2 clipping primitives.

Clipping is the sensitivity-bounding primitive of every algorithm in the
paper: silo-level deltas in ULDP-NAIVE (Alg. 1 line 13), per-sample
gradients in DP-SGD (Alg. 2), and per-user per-silo deltas in ULDP-AVG/SGD
(Alg. 3 lines 16/23).  Every path clips rows of a ``(G, P)`` matrix: each
row is scaled by ``min(1, clip / ||row||_2)``, a zero row is left as is,
and a row with a non-finite entry (a diverged local update) is zeroed --
naive scaling would produce NaNs (inf * 0) that poison the global model,
while dropping the update keeps the sensitivity bound intact.  It lives in
:mod:`repro.nn` because DP-SGD needs it below the :mod:`repro.core` layer;
:mod:`repro.core` re-exports it.
"""

from __future__ import annotations

import numpy as np


def clip_factor_from_norms(norms: np.ndarray, clip: float) -> np.ndarray:
    """Vector of ``min(1, clip / norm)`` factors from precomputed l2 norms.

    The single home of the edge-case conventions shared by every row-wise
    clipping path: zero norms map to factor 1 and non-finite norms to
    factor 0.
    """
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    norms = np.asarray(norms, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(norms > 0, np.minimum(1.0, clip / norms), 1.0)
    factors[~np.isfinite(norms)] = 0.0
    return factors


def clip_factor_rows(matrix: np.ndarray, clip: float) -> np.ndarray:
    """Each row's ``min(1, clip / ||row||)`` over a ``(G, P)`` matrix: the
    factor :func:`l2_clip_rows` applies, the alpha of the convergence
    analysis (Theorem 6).

    Returns the ``(G,)`` vector of factors; rows with non-finite entries
    report 0 and zero-norm rows report 1.
    The matrix is read exactly once (a single squared-norm reduction) --
    this sits on the round hot path for large delta matrices.
    """
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a (rows, features) matrix")
    # A row with any NaN/inf entry yields a NaN/inf squared norm, exactly
    # the rows the clip zeroes.
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    return clip_factor_from_norms(norms, clip)


def l2_clip_rows(
    matrix: np.ndarray,
    clip: float,
    out: np.ndarray | None = None,
    factors: np.ndarray | None = None,
) -> np.ndarray:
    """Scale each row of a ``(G, P)`` matrix to l2 norm at most ``clip``.

    Rows with non-finite entries are zeroed (a diverged local update
    contributes nothing).  ``out`` may
    alias ``matrix`` to clip in place; ``factors`` may carry precomputed
    :func:`clip_factor_rows` results to skip the norm pass.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if factors is None:
        factors = clip_factor_rows(matrix, clip)
    with np.errstate(invalid="ignore"):
        if out is None:
            out = matrix * factors[:, None]
        else:
            np.multiply(matrix, factors[:, None], out=out)
    # Factor-0 rows are the non-finite ones; 0 * inf left NaNs behind.
    dropped = factors == 0.0
    if np.any(dropped):
        out[dropped] = 0.0
    return out
