"""End-to-end compression through the Trainer: the oracle equivalence of
``compression="none"``, post-processing invariance of epsilon, byte-ledger
behaviour, and parity with the per-user loop oracle."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from oracle_loop import LoopUldpAvg  # noqa: E402

from repro.compress import CompressionSpec
from repro.core import Default, Trainer, UldpAvg
from repro.data import build_creditcard_benchmark
from repro.report import history_from_dict, history_to_dict


def tiny_fed(seed=0):
    return build_creditcard_benchmark(
        n_users=10, n_silos=3, n_records=200, n_test=60, seed=seed
    )


def tiny_method(cls=UldpAvg, **kwargs):
    defaults = dict(noise_multiplier=1.0, local_epochs=1, weighting="proportional")
    defaults.update(kwargs)
    return cls(**defaults)


def run(compression=None, rounds=3, seed=1, **method_kwargs):
    trainer = Trainer(
        tiny_fed(), tiny_method(**method_kwargs), rounds=rounds, seed=seed,
        compression=compression,
    )
    trainer.run()
    return trainer


LOSSY = CompressionSpec(
    sparsify="topk", fraction=0.1, quantize_bits=8, error_feedback=True
)


class TestOracleEquivalence:
    def test_none_spec_is_bit_identical_to_plain_trainer(self):
        plain = run(compression=None)
        ident = run(compression=CompressionSpec.none())
        assert np.array_equal(plain.params, ident.params)
        assert plain.history.records == ident.history.records
        assert plain.history.participation == ident.history.participation
        # The byte ledger is populated either way (dense defaults).
        assert plain.history.comm == ident.history.comm

    def test_constructor_spec_equals_trainer_spec(self):
        via_trainer = run(compression=LOSSY)
        trainer = Trainer(
            tiny_fed(), tiny_method(compression=LOSSY), rounds=3, seed=1
        )
        trainer.run()
        assert np.array_equal(via_trainer.params, trainer.params)
        assert via_trainer.history.comm == trainer.history.comm


class TestPostProcessingInvariance:
    def test_epsilon_identical_under_lossy_compression(self):
        # Compression happens strictly post-noise: the accountant must see
        # exactly the same calls, so epsilon matches to the last bit.
        plain = run(compression=None)
        compressed = run(compression=LOSSY)
        assert [r.epsilon for r in compressed.history.records] == [
            r.epsilon for r in plain.history.records
        ]

    def test_training_noise_draws_identical(self):
        # The compressor draws from its own stream: after identical rounds,
        # the trainer RNG of compressed and uncompressed runs must agree.
        plain = run(compression=None)
        compressed = run(compression=LOSSY)
        assert plain.rng.bit_generator.state == compressed.rng.bit_generator.state

    def test_compression_reduces_uplink_bytes(self):
        plain = run(compression=None)
        compressed = run(compression=LOSSY)
        ratio = plain.history.total_uplink_bytes / compressed.history.total_uplink_bytes
        assert ratio > 10.0

    def test_compressed_run_still_trains(self):
        compressed = run(compression=LOSSY, rounds=4)
        assert np.all(np.isfinite(compressed.params))
        assert np.isfinite(compressed.history.final.loss)


class TestByteLedger:
    def test_dense_default_bytes(self):
        plain = run(compression=None, rounds=2)
        dim = plain.params.size
        for record in plain.history.comm:
            assert record.uplink_bytes == 3 * dim * 8
            assert record.downlink_bytes == 3 * dim * 8

    def test_identity_spec_counts_dense_bytes(self):
        ident = run(compression=CompressionSpec.none(), rounds=2)
        dim = ident.params.size
        assert ident.history.comm[0].uplink_bytes == 3 * dim * 8

    def test_downlink_compression_shrinks_downlink_only_when_enabled(self):
        up_only = run(compression=LOSSY, rounds=2)
        dim = up_only.params.size
        assert up_only.history.comm[0].downlink_bytes == 3 * dim * 8

        both = run(
            compression=CompressionSpec(
                sparsify="topk", fraction=0.1, quantize_bits=8,
                error_feedback=True, downlink=True,
            ),
            rounds=2,
        )
        assert both.history.comm[0].downlink_bytes < 3 * dim * 8

    def test_comm_summary_and_totals(self):
        trainer = run(compression=LOSSY, rounds=3)
        up_mean, down_mean = trainer.history.comm_summary()
        assert up_mean * 3 == pytest.approx(trainer.history.total_uplink_bytes)
        assert down_mean * 3 == pytest.approx(trainer.history.total_downlink_bytes)

    def test_comm_serialisation_round_trip(self):
        history = run(compression=LOSSY, rounds=2).history
        restored = history_from_dict(history_to_dict(history))
        assert restored.comm == history.comm

    def test_legacy_payload_without_comm_loads(self):
        data = history_to_dict(run(rounds=2).history)
        del data["comm"]
        assert history_from_dict(data).comm == []


class TestEngineParity:
    def test_loop_and_vectorized_report_identical_bytes(self):
        vec = run(compression=LOSSY)
        loop = run(compression=LOSSY, cls=LoopUldpAvg)
        assert [c.uplink_bytes for c in vec.history.comm] == [
            c.uplink_bytes for c in loop.history.comm
        ]
        # Same RNG discipline as the engine seam: aggregates agree to
        # floating-point precision, so the trajectories stay close.
        np.testing.assert_allclose(vec.params, loop.params, atol=1e-8)


class TestUnsupportedMethods:
    def test_non_avg_method_rejects_lossy_spec(self):
        with pytest.raises(NotImplementedError):
            Trainer(tiny_fed(), Default(), rounds=1, compression=LOSSY)

    def test_non_avg_method_accepts_identity_spec(self):
        trainer = Trainer(
            tiny_fed(), Default(local_epochs=1), rounds=1,
            compression=CompressionSpec.none(),
        )
        trainer.run()
        assert trainer.history.comm[0].uplink_bytes > 0
