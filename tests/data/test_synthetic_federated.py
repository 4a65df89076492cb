"""Tests for synthetic dataset generators and the FederatedDataset container."""

import numpy as np
import pytest

from repro.data import (
    FederatedDataset,
    SiloData,
    build_creditcard_benchmark,
    build_heartdisease_benchmark,
    build_mnist_benchmark,
    build_tcgabrca_benchmark,
)
from repro.data.synthetic import (
    synthetic_creditcard,
    synthetic_heartdisease,
    synthetic_mnist,
    synthetic_tcgabrca,
)


class TestGenerators:
    def test_creditcard_shapes(self):
        raw = synthetic_creditcard(n_records=1000, n_test=200, seed=0)
        assert raw.x.shape == (1000, 30)
        assert raw.test_x.shape == (200, 30)
        assert set(np.unique(raw.y)) <= {0, 1}
        assert raw.task == "binary"

    def test_creditcard_imbalance(self):
        raw = synthetic_creditcard(n_records=5000, positive_rate=0.2, seed=1)
        rate = raw.y.mean()
        assert 0.15 < rate < 0.25

    def test_creditcard_is_learnable(self):
        """Positive class must be separable from negatives (mean shift)."""
        raw = synthetic_creditcard(n_records=5000, seed=2)
        mu_pos = raw.x[raw.y == 1].mean(axis=0)
        mu_neg = raw.x[raw.y == 0].mean(axis=0)
        assert np.linalg.norm(mu_pos - mu_neg) > 0.5

    def test_mnist_shapes(self):
        raw = synthetic_mnist(n_records=300, n_test=50, image_size=14, seed=0)
        assert raw.x.shape == (300, 1, 14, 14)
        assert raw.task == "multiclass"
        assert raw.y.max() < 10

    def test_mnist_classes_distinct(self):
        raw = synthetic_mnist(n_records=2000, noise_std=0.3, seed=1)
        # Per-class means should be mutually further apart than within-class
        # scatter (i.e. the task is learnable).
        means = np.stack([raw.x[raw.y == c].mean(axis=0).ravel() for c in range(10)])
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        off_diag = dists[~np.eye(10, dtype=bool)]
        assert off_diag.min() > 1.0

    def test_heartdisease_structure(self):
        xs, ys, raw = synthetic_heartdisease(seed=0)
        assert len(xs) == 4
        assert [len(x) for x in xs] == [303, 261, 46, 130]
        assert raw.task == "binary"

    def test_tcgabrca_structure(self):
        xs, ys, raw = synthetic_tcgabrca(seed=0)
        assert len(xs) == 6
        assert ys[0].shape[1] == 2  # (time, event)
        assert np.all(ys[0][:, 0] > 0)  # positive times
        assert set(np.unique(ys[0][:, 1])) <= {0.0, 1.0}
        assert raw.task == "survival"

    def test_tcgabrca_has_events_and_censoring(self):
        _, ys, _ = synthetic_tcgabrca(seed=3)
        events = np.concatenate([y[:, 1] for y in ys])
        assert 0.3 < events.mean() < 0.9

    def test_determinism(self):
        a = synthetic_creditcard(n_records=100, seed=5)
        b = synthetic_creditcard(n_records=100, seed=5)
        np.testing.assert_array_equal(a.x, b.x)


class TestFederatedDataset:
    def _tiny(self):
        silos = [
            SiloData(np.zeros((4, 2)), np.zeros(4), np.array([0, 0, 1, 2])),
            SiloData(np.zeros((3, 2)), np.zeros(3), np.array([1, 1, 2])),
        ]
        return FederatedDataset(
            silos=silos, n_users=3, test_x=np.zeros((2, 2)), test_y=np.zeros(2),
            task="binary", name="tiny",
        )

    def test_histogram(self):
        fed = self._tiny()
        np.testing.assert_array_equal(
            fed.histogram(), [[2, 1, 1], [0, 2, 1]]
        )

    def test_user_totals(self):
        np.testing.assert_array_equal(self._tiny().user_totals(), [2, 3, 2])

    def test_counts(self):
        fed = self._tiny()
        assert fed.n_silos == 2
        assert fed.n_records == 7
        assert fed.mean_records_per_user() == pytest.approx(7 / 3)

    def test_records_of_user(self):
        fed = self._tiny()
        x, y = fed.silos[0].records_of_user(0)
        assert len(x) == 2

    def test_user_index_matches_the_mask(self):
        # The lazy index (stable sort by user id + spans) hands out exactly
        # what ``user_ids == u`` selects, rows in record order -- for every
        # user present, and empty arrays of the right trailing shape for an
        # absent one (also one past the largest id).
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 40, size=500)
        ids[ids == 17] = 3  # a hole in the id range
        silo = SiloData(rng.standard_normal((500, 2, 3)), rng.random(500), ids)
        assert silo._index is None  # nothing is built before the first read
        np.testing.assert_array_equal(silo.users_present(), np.unique(ids))
        for user in [*np.unique(ids), np.int64(3)]:
            x, y = silo.records_of_user(user)
            np.testing.assert_array_equal(x, silo.x[ids == user])
            np.testing.assert_array_equal(y, silo.y[ids == user])
        for absent in (17, 40, -1):
            x, y = silo.records_of_user(absent)
            assert x.shape == (0, 2, 3) and y.shape == (0,)

    def test_user_index_is_read_only_and_dropped_on_reassignment(self):
        silo = self._tiny().silos[0]
        x, y = silo.records_of_user(0)
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
        silo.y = 1.0 - silo.y  # e.g. a label-flipping attack
        assert silo._index is None
        np.testing.assert_array_equal(
            silo.records_of_user(0)[1], silo.y[silo.user_ids == 0]
        )

    def test_pickle_carries_the_records_once(self):
        import pickle

        rng = np.random.default_rng(0)
        silo = SiloData(rng.standard_normal((400, 30)), rng.random(400),
                        rng.integers(0, 9, size=400))
        before = len(pickle.dumps(silo))
        silo.records_of_user(0)
        assert len(pickle.dumps(silo)) == before
        clone = pickle.loads(pickle.dumps(silo))
        np.testing.assert_array_equal(
            clone.records_of_user(5)[0], silo.records_of_user(5)[0]
        )

    def test_token_tells_federations_apart(self):
        fed = self._tiny()
        assert fed.token() == self._tiny().token()
        other = self._tiny()
        other.silos[1].user_ids = np.array([1, 2, 1])  # same counts, other owners
        assert other.token() != fed.token()
        assert fed.apply_flags(
            [np.array([True, False, True, True]), np.ones(3, dtype=bool)]
        ).token() != fed.token()

    def test_apply_flags(self):
        fed = self._tiny()
        flags = [np.array([True, False, True, True]), np.array([False, True, True])]
        filtered = fed.apply_flags(flags)
        assert filtered.n_records == 5
        np.testing.assert_array_equal(filtered.histogram().sum(axis=0), [1, 2, 2])
        # Original untouched.
        assert fed.n_records == 7

    def test_apply_flags_validates(self):
        fed = self._tiny()
        with pytest.raises(ValueError):
            fed.apply_flags([np.array([True])] * 2)
        with pytest.raises(ValueError):
            fed.apply_flags([np.ones(4, dtype=bool)])

    def test_rejects_bad_task(self):
        with pytest.raises(ValueError):
            FederatedDataset(
                silos=[], n_users=1, test_x=np.zeros((1, 1)), test_y=np.zeros(1),
                task="regression",
            )

    def test_rejects_out_of_range_user(self):
        with pytest.raises(ValueError):
            FederatedDataset(
                silos=[SiloData(np.zeros((1, 1)), np.zeros(1), np.array([5]))],
                n_users=3, test_x=np.zeros((1, 1)), test_y=np.zeros(1),
                task="binary",
            )

    def test_summary_string(self):
        s = self._tiny().summary()
        assert "|S|=2" in s and "|U|=3" in s


class TestBenchmarkBuilders:
    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_creditcard_benchmark(self, distribution):
        fed = build_creditcard_benchmark(
            n_users=20, n_silos=5, n_records=500, n_test=100, seed=0,
            distribution=distribution,
        )
        assert fed.n_silos == 5
        assert fed.n_users == 20
        assert fed.n_records == fed.histogram().sum() == 500  # none lost
        assert fed.task == "binary"

    def test_mnist_benchmark_noniid(self):
        fed = build_mnist_benchmark(
            n_users=10, n_silos=3, n_records=300, n_test=50, non_iid=True, seed=0
        )
        for user in range(10):
            labels = set()
            for silo in fed.silos:
                _, y = silo.records_of_user(user)
                labels.update(np.unique(y).tolist())
            assert len(labels) <= 2

    def test_heartdisease_benchmark(self):
        fed = build_heartdisease_benchmark(n_users=25, seed=0)
        assert fed.n_silos == 4
        assert [s.n_records for s in fed.silos] == [303, 261, 46, 130]

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_tcgabrca_min_two_records(self, distribution):
        fed = build_tcgabrca_benchmark(n_users=30, distribution=distribution, seed=0)
        hist = fed.histogram()
        present = hist[hist > 0]
        assert present.min() >= 2

    def test_zipf_distribution_accepted(self):
        fed = build_creditcard_benchmark(
            n_users=50, distribution="zipf", n_records=1000, n_test=100, seed=1
        )
        totals = fed.user_totals()
        assert totals.max() > 3 * max(np.median(totals), 1)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            build_creditcard_benchmark(distribution="normal", n_records=100, n_test=10)

    def test_seed_reproducibility(self):
        a = build_creditcard_benchmark(n_users=10, n_records=200, n_test=20, seed=9)
        b = build_creditcard_benchmark(n_users=10, n_records=200, n_test=20, seed=9)
        np.testing.assert_array_equal(a.histogram(), b.histogram())
