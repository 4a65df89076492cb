"""Empirical sensitivity probes.

Utilities that measure, with noise disabled, how much a method's pre-noise
aggregate moves when one user's records are swapped -- the quantity the
privacy theorems bound analytically (Theorems 1 and 3, Figure 3).  Used by
the sensitivity and noise-calibration tests.
"""

from __future__ import annotations

import numpy as np

from repro.data.federated import FederatedDataset, SiloData
from repro.nn.model import build_tiny_mlp

#: A user (id 0) with many records in every silo: the adversarial case for
#: record-level DP and the motivating example of the paper (Figure 1).
HEAVY_USER_LAYOUT = [
    [0] * 6 + [1, 2, 3],
    [0] * 4 + [2, 3, 3],
    [0] * 5 + [1, 1, 2],
]
N_USERS = 4


def make_fed(
    user_ids_per_silo: list[list[int]],
    n_users: int,
    seed: int = 0,
    n_features: int = 4,
) -> FederatedDataset:
    """Small random binary-classification federation with a fixed layout."""
    rng = np.random.default_rng(seed)
    silos = []
    for ids in user_ids_per_silo:
        n = len(ids)
        silos.append(
            SiloData(
                rng.standard_normal((n, n_features)),
                rng.integers(0, 2, n),
                np.asarray(ids),
            )
        )
    return FederatedDataset(
        silos=silos,
        n_users=n_users,
        test_x=rng.standard_normal((8, n_features)),
        test_y=rng.integers(0, 2, 8),
        task="binary",
        name="sensitivity-probe",
    )


def replace_user_records(
    fed: FederatedDataset, user: int, seed: int
) -> FederatedDataset:
    """Copy of ``fed`` with the user's features/labels resampled everywhere.

    The replacement data is drawn at 10x scale so the swap is adversarial
    (it saturates the clipping bound rather than hiding inside it).
    """
    rng = np.random.default_rng(seed)
    silos = []
    for silo in fed.silos:
        x = silo.x.copy()
        y = silo.y.copy()
        mask = silo.user_ids == user
        x[mask] = 10.0 * rng.standard_normal((int(mask.sum()), x.shape[1]))
        y[mask] = rng.integers(0, 2, int(mask.sum()))
        silos.append(SiloData(x, y, silo.user_ids.copy()))
    return FederatedDataset(
        silos=silos, n_users=fed.n_users, test_x=fed.test_x, test_y=fed.test_y,
        task=fed.task, name=fed.name,
    )


def prenoise_aggregate(method_cls, fed, clip, seed=1, **kwargs) -> np.ndarray:
    """One noiseless round's server step (new params minus old params)."""
    rng = np.random.default_rng(seed)
    model = build_tiny_mlp(fed.test_x.shape[1], 6, 2, np.random.default_rng(42))
    method = method_cls(clip=clip, noise_multiplier=0.0, **kwargs)
    method.prepare(fed, model, rng)
    params = model.get_flat_params()
    return method.round(0, params).params - params
