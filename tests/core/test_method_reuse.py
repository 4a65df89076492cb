"""Regression: Trainer must not mutate the caller's method object.

The seed Trainer assigned ``method.compression = compression``, so a
method instance reused across two trainers silently inherited the first
trainer's compression spec.  The trainer now passes the override through
``prepare(compression=...)`` and the method records it in
``active_compression`` only.
"""

import numpy as np

from repro.compress import CompressionSpec
from repro.core import Trainer, UldpAvg
from repro.data import build_creditcard_benchmark

LOSSY = CompressionSpec(sparsify="topk", fraction=0.1)


def _fed(seed=0):
    return build_creditcard_benchmark(
        n_users=8, n_silos=2, distribution="zipf", n_records=120,
        n_test=60, seed=seed,
    )


class TestMethodReuseAcrossTrainers:
    def test_method_object_not_mutated(self):
        method = UldpAvg(noise_multiplier=1.0, local_epochs=1)
        assert method.compression is None
        Trainer(_fed(), method, rounds=1, seed=0, compression=LOSSY)
        # The trainer-level spec must not be written back onto the method.
        assert method.compression is None
        assert method.active_compression == LOSSY

    def test_second_trainer_does_not_inherit_compression(self):
        method = UldpAvg(noise_multiplier=1.0, local_epochs=1)
        compressed = Trainer(_fed(), method, rounds=2, seed=0, compression=LOSSY)
        compressed.run()
        # Rebinding the same instance without compression must be dense.
        dense = Trainer(_fed(), method, rounds=2, seed=0)
        assert method.active_compression is None
        assert method.compressor is None
        history = dense.run()
        up, _ = history.comm_summary()
        # Dense float32 payloads: n_silos * params * 4 bytes per round.
        expected = 2 * compressed.model.num_params * 4
        assert up == expected

    def test_dense_rerun_matches_fresh_method(self):
        """A reused instance trains exactly like a never-compressed one.

        The training trajectory (metrics, loss, participation, bytes) must
        match a fresh method bit for bit; only epsilon differs, because the
        method's accountant deliberately *accumulates* across bindings
        (reusing a method on the same data keeps consuming its budget).
        """
        reused = UldpAvg(noise_multiplier=1.0, local_epochs=1)
        Trainer(_fed(), reused, rounds=1, seed=0, compression=LOSSY).run()
        reused_history = Trainer(_fed(), reused, rounds=2, seed=0).run()

        fresh = UldpAvg(noise_multiplier=1.0, local_epochs=1)
        fresh_history = Trainer(_fed(), fresh, rounds=2, seed=0).run()

        for a, b in zip(reused_history.records, fresh_history.records):
            assert (a.metric, a.loss) == (b.metric, b.loss)
            assert a.epsilon > b.epsilon  # budget carried over, honestly
        assert reused_history.comm == fresh_history.comm
        assert reused_history.participation == fresh_history.participation

    def test_method_level_spec_still_honoured(self):
        """A spec passed at construction keeps applying without a trainer
        override (and survives rebinding)."""
        method = UldpAvg(noise_multiplier=1.0, local_epochs=1, compression=LOSSY)
        trainer = Trainer(_fed(), method, rounds=1, seed=0)
        assert method.active_compression == LOSSY
        assert method.compressor is not None
        history = trainer.run()
        up, _ = history.comm_summary()
        assert up < trainer.model.num_params * 8  # actually compressed

    def test_trainer_override_beats_method_spec_without_clobbering(self):
        method_spec = CompressionSpec(sparsify="randk", fraction=0.5)
        override = CompressionSpec(sparsify="topk", fraction=0.1)
        method = UldpAvg(noise_multiplier=1.0, local_epochs=1,
                         compression=method_spec)
        Trainer(_fed(), method, rounds=1, seed=0, compression=override)
        assert method.active_compression == override
        assert method.compression == method_spec  # untouched
