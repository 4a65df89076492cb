"""Record allocation: linking records to users and silos (Section 5.1).

The paper evaluates two allocation families:

**Free allocation** (Creditcard, MNIST -- records are not pre-assigned to
silos):

- ``uniform``: every record draws its user and its silo independently and
  uniformly.
- ``zipf``: the records-per-user counts follow a (bounded) Zipf law with
  exponent ``alpha_user`` (paper: 0.5); each user then spreads their records
  over silos by a second Zipf law with exponent ``alpha_silo`` (paper: 2.0)
  over a user-specific random silo order.

**Pre-siloed allocation** (HeartDisease, TcgaBrca -- silo sizes are fixed by
the benchmark):

- ``uniform``: each record draws its user uniformly, silos untouched.
- ``zipf``: per-user record counts follow the Zipf law; each user sends 80 %
  of their records to a randomly chosen primary silo and the rest uniformly
  to the others (fitted to the fixed silo capacities).

``zipf_weights`` uses bounded ranks (weight of rank r is r^-alpha over the
n_users ranks), since a Zipf law with exponent <= 1 is not normalisable on
infinite support.

A post-processing helper enforces the TcgaBrca constraint that every
(user, silo) pair present holds at least ``min_records`` records (the Cox
loss needs >= 2 records).
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalised bounded-Zipf weights: w_r proportional to r^-alpha.

    Ranks run 1..n (weight of rank r is ``r ** -alpha`` before
    normalisation), so the first rank carries the largest weight.
    """
    if n < 1:
        raise ValueError("need at least one rank")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


def allocate_uniform(
    n_records: int, n_users: int, n_silos: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Free uniform allocation: independent uniform user and silo draws.

    Returns:
        (user_ids, silo_ids), each of shape (n_records,).
    """
    users = rng.integers(0, n_users, size=n_records)
    silos = rng.integers(0, n_silos, size=n_records)
    return users, silos


def allocate_zipf(
    n_records: int,
    n_users: int,
    n_silos: int,
    rng: np.random.Generator,
    alpha_user: float = 0.5,
    alpha_silo: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Free Zipf allocation (paper defaults alpha_user=0.5, alpha_silo=2.0).

    Users are randomly ranked; the user's silo preference order is an
    independent random permutation per user (the "concentration in the silos
    selected by each user" is higher than the user-count concentration).
    """
    user_rank = rng.permutation(n_users)
    per_user = rng.multinomial(n_records, zipf_weights(n_users, alpha_user))

    users = np.empty(n_records, dtype=np.int64)
    silos = np.empty(n_records, dtype=np.int64)
    silo_w = zipf_weights(n_silos, alpha_silo)
    pos = 0
    for rank, count in enumerate(per_user):
        if count == 0:
            continue
        user = user_rank[rank]
        order = rng.permutation(n_silos)
        per_silo = rng.multinomial(count, silo_w)
        for silo_rank, silo_count in enumerate(per_silo):
            users[pos : pos + silo_count] = user
            silos[pos : pos + silo_count] = order[silo_rank]
            pos += silo_count
    # Shuffle so record order carries no allocation signal.
    perm = rng.permutation(n_records)
    return users[perm], silos[perm]


def allocate_presiloed_uniform(
    silo_sizes: list[int], n_users: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Pre-siloed uniform: per-silo user-id arrays, users drawn uniformly."""
    return [rng.integers(0, n_users, size=size) for size in silo_sizes]


def allocate_presiloed_zipf(
    silo_sizes: list[int],
    n_users: int,
    rng: np.random.Generator,
    alpha_user: float = 0.5,
    primary_fraction: float = 0.8,
) -> list[np.ndarray]:
    """Pre-siloed Zipf: Zipf user counts, 80 % to a random primary silo.

    Desired per-(user, silo) counts are fitted to the fixed silo capacities
    by sampling each silo's records from the users' remaining desired counts
    (falling back to uniform once desires are exhausted), so realised counts
    approximate the target distribution while exactly matching silo sizes.
    """
    if not 0 < primary_fraction <= 1:
        raise ValueError("primary_fraction must lie in (0, 1]")
    n_silos = len(silo_sizes)
    total = int(sum(silo_sizes))
    user_rank = rng.permutation(n_users)
    per_user = rng.multinomial(total, zipf_weights(n_users, alpha_user))

    desired = np.zeros((n_users, n_silos), dtype=np.float64)
    for rank, count in enumerate(per_user):
        user = user_rank[rank]
        primary = rng.integers(0, n_silos)
        desired[user, primary] += primary_fraction * count
        if n_silos > 1:
            others = [s for s in range(n_silos) if s != primary]
            desired[user, others] += (1 - primary_fraction) * count / (n_silos - 1)

    out = []
    for s, size in enumerate(silo_sizes):
        weights = desired[:, s].copy()
        if weights.sum() <= 0:
            weights = np.ones(n_users)
        assignments = np.empty(size, dtype=np.int64)
        for i in range(size):
            p = weights / weights.sum()
            user = rng.choice(n_users, p=p)
            assignments[i] = user
            weights[user] = max(weights[user] - 1.0, 0.0)
            if weights.sum() <= 0:
                weights = np.ones(n_users)
        out.append(assignments)
    return out


def allocate_noniid_by_label(
    labels: np.ndarray,
    n_users: int,
    n_silos: int,
    rng: np.random.Generator,
    labels_per_user: int = 2,
    silo_distribution: str = "uniform",
    alpha_silo: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """User-level non-iid allocation: each user sees at most k labels.

    Used for the MNIST non-iid experiments (Fig. 5c/5f).  Every user is
    assigned ``labels_per_user`` label values; each record is routed to a
    uniformly random user owning its label.  Silos are then drawn uniformly
    or by the per-user Zipf preference, as in :func:`allocate_zipf`.
    """
    labels = np.asarray(labels).ravel()
    classes = np.unique(labels)
    n_records = len(labels)

    user_labels = [rng.choice(classes, size=min(labels_per_user, len(classes)), replace=False)
                   for _ in range(n_users)]
    label_to_users: dict[int, list[int]] = {int(c): [] for c in classes}
    for u, ls in enumerate(user_labels):
        for l in ls:
            label_to_users[int(l)].append(u)
    # Every label needs at least one owner; patch gaps deterministically.
    for c, owners in label_to_users.items():
        if not owners:
            owners.append(int(rng.integers(0, n_users)))

    users = np.array(
        [label_to_users[int(l)][rng.integers(0, len(label_to_users[int(l)]))] for l in labels],
        dtype=np.int64,
    )

    if silo_distribution == "uniform":
        silos = rng.integers(0, n_silos, size=n_records)
    elif silo_distribution == "zipf":
        silo_w = zipf_weights(n_silos, alpha_silo)
        orders = {u: rng.permutation(n_silos) for u in range(n_users)}
        ranks = rng.choice(n_silos, size=n_records, p=silo_w)
        silos = np.array([orders[int(u)][r] for u, r in zip(users, ranks)], dtype=np.int64)
    else:
        raise ValueError(f"unknown silo distribution: {silo_distribution!r}")
    return users, silos


def enforce_min_records_per_pair(
    user_ids: np.ndarray, silo_ids: np.ndarray, min_records: int, rng: np.random.Generator
) -> np.ndarray:
    """Reassign users so every present (silo, user) pair has >= min_records.

    Needed for TcgaBrca: the Cox loss requires at least two records per
    training unit.  Records in under-populated pairs are handed to the
    already-largest user within the same silo (silo membership is fixed).
    Returns the corrected user-id array.
    """
    if min_records < 1:
        raise ValueError("min_records must be at least 1")
    user_ids = np.array(user_ids, dtype=np.int64, copy=True)
    silo_ids = np.asarray(silo_ids, dtype=np.int64)
    for s in np.unique(silo_ids):
        in_silo = np.where(silo_ids == s)[0]
        while True:
            ids, counts = np.unique(user_ids[in_silo], return_counts=True)
            small = ids[counts < min_records]
            if len(small) == 0 or len(ids) == 1:
                break
            target = ids[np.argmax(counts)]
            if target in small:
                # Everyone is under the minimum; merge all into one user.
                user_ids[in_silo] = target
                break
            donor = small[0]
            user_ids[in_silo[user_ids[in_silo] == donor]] = target
    return user_ids
