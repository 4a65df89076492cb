"""Federated dataset containers.

A :class:`FederatedDataset` holds per-silo training data where every record
is tagged with a user id -- the defining structure of the paper's setting
(one user's records may appear in several silos).  It exposes the views the
algorithms need:

- per-silo data (DEFAULT/FedAVG, ULDP-NAIVE, DP-SGD in ULDP-GROUP),
- per-(silo, user) data (the per-user inner loop of ULDP-AVG/SGD),
- the user-count histogram ``n[s, u]`` (the enhanced weighting strategy and
  Protocol 1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SiloData:
    """Training records held by one silo.

    ``x`` has shape (n, ...) and ``y`` shape (n,) or (n, k); ``user_ids``
    maps each record to the global user id owning it.

    Per-user access goes through one lazily built index: the records
    stable-sorted by user id (so each user's rows keep their original
    order) plus every present user's ``[start, stop)`` span in that copy.
    Re-assigning ``x`` / ``y`` / ``user_ids`` drops it; writing *into* them
    afterwards does not, so poison a silo before its first per-user read.
    """

    x: np.ndarray
    y: np.ndarray
    user_ids: np.ndarray
    _index: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.user_ids = np.asarray(self.user_ids, dtype=np.int64)
        if len(self.x) != len(self.y) or len(self.x) != len(self.user_ids):
            raise ValueError("x, y, user_ids must have equal length")

    def __setattr__(self, name, value):
        if name in ("x", "y", "user_ids"):
            object.__setattr__(self, "_index", None)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        """Pickles carry the records once: the index is rebuilt on demand."""
        return {**self.__dict__, "_index": None}

    @property
    def n_records(self) -> int:
        return len(self.x)

    def _user_index(self) -> tuple:
        """``(users, spans, x_sorted, y_sorted)``, built on first use."""
        if self._index is None:
            order = np.argsort(self.user_ids, kind="stable")
            users, starts = np.unique(self.user_ids[order], return_index=True)
            stops = np.append(starts[1:], len(order))
            spans = dict(zip(users.tolist(), zip(starts.tolist(), stops.tolist())))
            x, y = np.asarray(self.x)[order], np.asarray(self.y)[order]
            # Callers get views of these copies, never of the silo's records.
            users.flags.writeable = x.flags.writeable = y.flags.writeable = False
            object.__setattr__(self, "_index", (users, spans, x, y))
        return self._index

    def records_of_users(self, users) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each of ``users``' rows in record order, as ``(x, y)`` read-only
        views (empty when the silo holds none of that user)."""
        _, spans, x, y = self._user_index()
        slices = [spans.get(user, (0, 0)) for user in users]
        return [(x[start:stop], y[start:stop]) for start, stop in slices]

    def records_of_user(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        return self.records_of_users((user,))[0]

    def users_present(self) -> np.ndarray:
        return self._user_index()[0]


@dataclass
class FederatedDataset:
    """The cross-silo database D spanning all silos, plus held-out test data.

    Attributes:
        silos: per-silo training data.
        n_users: size of the global user set U (user ids are 0..n_users-1).
        test_x / test_y: centralised held-out evaluation data.
        task: ``"multiclass"``, ``"binary"``, or ``"survival"`` -- selects
            the loss and utility metric in the trainer.
        name: human-readable dataset label.
    """

    silos: list[SiloData]
    n_users: int
    test_x: np.ndarray
    test_y: np.ndarray
    task: str = "multiclass"
    name: str = "dataset"
    _histogram: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        valid_tasks = {"multiclass", "binary", "survival"}
        if self.task not in valid_tasks:
            raise ValueError(f"task must be one of {sorted(valid_tasks)}")
        if self.n_users < 1:
            raise ValueError("need at least one user")
        for silo in self.silos:
            if silo.n_records and silo.user_ids.max() >= self.n_users:
                raise ValueError("user id out of range")

    @property
    def n_silos(self) -> int:
        return len(self.silos)

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.silos)

    def token(self) -> tuple:
        """A cheap fingerprint of who holds what: name, |U|, and per silo
        the record count and a CRC of its user-id column.  Two copies of
        one federation agree on it; a re-drawn or re-allocated one does
        not -- what a shard task that names its records by ``(silo,
        users)`` checks before a pool worker resolves it
        (:func:`repro.core.engine.resident_jobs`)."""
        return (
            self.name,
            self.n_users,
            tuple(
                (silo.n_records, zlib.crc32(np.ascontiguousarray(silo.user_ids)))
                for silo in self.silos
            ),
        )

    def histogram(self) -> np.ndarray:
        """n[s, u]: number of records of user u held by silo s (cached)."""
        if self._histogram is None:
            hist = np.zeros((self.n_silos, self.n_users), dtype=np.int64)
            for s, silo in enumerate(self.silos):
                ids, counts = np.unique(silo.user_ids, return_counts=True)
                hist[s, ids] = counts
            self._histogram = hist
        return self._histogram

    def user_totals(self) -> np.ndarray:
        """N_u: total records of each user across all silos."""
        return self.histogram().sum(axis=0)

    def mean_records_per_user(self) -> float:
        """The paper's n-bar: average records per user over the whole database."""
        return self.n_records / self.n_users

    def apply_flags(self, flags: list[np.ndarray]) -> "FederatedDataset":
        """Filter records by boolean flags (the B matrix of ULDP-GROUP-k).

        Args:
            flags: one boolean array per silo, aligned with that silo's
                records; True keeps the record.

        Returns:
            A new dataset sharing the test split.
        """
        if len(flags) != self.n_silos:
            raise ValueError("need one flag array per silo")
        new_silos = []
        for silo, flag in zip(self.silos, flags):
            flag = np.asarray(flag, dtype=bool)
            if len(flag) != silo.n_records:
                raise ValueError("flag length must match silo record count")
            new_silos.append(SiloData(silo.x[flag], silo.y[flag], silo.user_ids[flag]))
        return FederatedDataset(
            silos=new_silos,
            n_users=self.n_users,
            test_x=self.test_x,
            test_y=self.test_y,
            task=self.task,
            name=self.name,
        )

    def summary(self) -> str:
        hist = self.histogram()
        per_silo = ", ".join(str(s.n_records) for s in self.silos)
        return (
            f"{self.name}: |S|={self.n_silos} |U|={self.n_users} "
            f"records={self.n_records} (per silo: {per_silo}) "
            f"n-bar={self.mean_records_per_user():.1f} "
            f"max N_u={int(hist.sum(axis=0).max())}"
        )
