"""Bandwidth-constrained simulation: the BandwidthModel, the two named
bandwidth scenarios, and checkpoint/resume with compression state."""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.api import RunSpec, run
from repro.api.runner import build_simulator, checkpoint_extra
from repro.compress import CompressionSpec
from repro.core.methods.uldp_avg import UldpAvg
from repro.data import build_creditcard_benchmark
from repro.sim import (
    BandwidthModel,
    BufferedAsyncPolicy,
    FederationSimulator,
    SimConfig,
    save_checkpoint,
)
from repro.sim.scenarios import resume_simulator, run_simulator_with_checkpoints


def smoke_spec(scenario, seed, rounds):
    return RunSpec.from_dict({
        "seed": seed, "rounds": rounds,
        "sim": {"scenario": scenario, "scale": "smoke"},
    })


LOSSY = CompressionSpec(
    sparsify="topk", fraction=0.05, quantize_bits=8, error_feedback=True
)


def tiny_fed(seed=0):
    return build_creditcard_benchmark(
        n_users=10, n_silos=3, n_records=200, n_test=60, seed=seed
    )


def tiny_method(**kwargs):
    defaults = dict(noise_multiplier=1.0, local_epochs=1, weighting="proportional")
    defaults.update(kwargs)
    return UldpAvg(**defaults)


class TestBandwidthModel:
    def test_transmission_times_scale_with_rate(self):
        model = BandwidthModel(rate=1000.0, silo_rate=(1.0, 0.5))
        np.testing.assert_allclose(
            model.transmission_times(2000.0, 2), [2.0, 4.0]
        )

    def test_scalar_byte_cap(self):
        model = BandwidthModel(rate=1.0, byte_cap=100.0)
        assert model.admitted(100.0, 3).all()
        assert not model.admitted(101.0, 3).any()

    def test_per_silo_byte_caps(self):
        model = BandwidthModel(rate=1.0, byte_cap=(50.0, 200.0))
        np.testing.assert_array_equal(model.admitted(100.0, 2), [False, True])

    def test_no_cap_admits_everything(self):
        assert BandwidthModel(rate=1.0).admitted(1e12, 4).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthModel(rate=0.0)
        with pytest.raises(ValueError):
            BandwidthModel(rate=1.0, silo_rate=(1.0, 0.0))
        with pytest.raises(ValueError):
            BandwidthModel(rate=1.0, byte_cap=-1.0)
        with pytest.raises(ValueError):
            BandwidthModel(rate=1.0).transmission_times(-1.0, 2)
        with pytest.raises(ValueError):
            BandwidthModel(rate=1.0, silo_rate=(1.0,)).transmission_times(1.0, 2)
        with pytest.raises(ValueError):
            BandwidthModel(rate=1.0, byte_cap=(1.0,)).admitted(1.0, 2)


class TestBandwidthSimulation:
    def test_dense_payload_over_cap_excludes_all_silos(self):
        fed = tiny_fed()
        config = SimConfig(
            rounds=2, seed=1, bandwidth=BandwidthModel(rate=8192.0, byte_cap=4096.0)
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        assert all(p.silos_seen == 0 for p in sim.history.participation)
        # Nothing was released, so no budget was spent.
        assert all(r.sensitivity == 0.0 for r in sim.method.accountant.releases)

    def test_compressed_payload_fits_the_same_cap(self):
        fed = tiny_fed()
        config = SimConfig(
            rounds=2, seed=1, compression=LOSSY,
            bandwidth=BandwidthModel(rate=8192.0, byte_cap=4096.0),
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        assert all(p.silos_seen == fed.n_silos for p in sim.history.participation)
        assert sim.round_log[0]["payload_bytes"] == LOSSY.payload_bytes(
            sim.trainer.params.size
        )

    def test_transmission_time_advances_the_clock(self):
        fed = tiny_fed()
        dim_bytes = None
        config = SimConfig(
            rounds=1, seed=1, bandwidth=BandwidthModel(rate=1000.0)
        )
        sim = FederationSimulator(fed, tiny_method(), config)
        sim.run()
        dim_bytes = sim.trainer.params.size * 4  # one float32 release
        assert sim.clock == pytest.approx(dim_bytes / 1000.0)

    def test_async_with_lossy_compression_rejected(self):
        fed = tiny_fed()
        with pytest.raises(ValueError, match="buffered-async"):
            FederationSimulator(
                fed,
                tiny_method(),
                SimConfig(
                    rounds=1, policy=BufferedAsyncPolicy(), compression=LOSSY
                ),
            )

    def test_async_with_bandwidth_model_rejected(self):
        # The async event loop never consults the bandwidth model; accepting
        # one would silently ignore the user's configured constraint.
        fed = tiny_fed()
        with pytest.raises(ValueError, match="bandwidth"):
            FederationSimulator(
                fed,
                tiny_method(),
                SimConfig(
                    rounds=1,
                    policy=BufferedAsyncPolicy(),
                    bandwidth=BandwidthModel(rate=1000.0),
                ),
            )


class TestPayloadBytesReporting:
    def test_plain_method_reports_dense_then_compressed(self):
        """``uplink_payload_bytes()`` is ``FLMethod.uplink_bytes`` under the
        active spec, the rule the cost model prices the uplink by: one
        float32 release when dense or identity, else the compressed size."""
        from repro.core import Trainer

        fed = tiny_fed()
        for spec in (None, CompressionSpec.none(), LOSSY):
            method = tiny_method()
            Trainer(fed, method, rounds=1, compression=spec)
            dim = method.model.num_params
            expected = dim * 4 if spec is not LOSSY else LOSSY.payload_bytes(dim)
            assert method.uplink_payload_bytes() == expected, spec
            assert UldpAvg.uplink_bytes(spec, dim) == expected, spec

    def test_secure_method_reports_ciphertext_bytes(self):
        # Bandwidth models must see the wire reality of Protocol 1: one
        # Paillier ciphertext per surviving coordinate, not 8-byte floats.
        from repro.core import Trainer
        from repro.nn.model import build_tiny_mlp
        from repro.protocol import SecureUldpAvg

        fed = build_creditcard_benchmark(
            n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
        )
        spec = CompressionSpec(sparsify="randk", fraction=0.25, seed=3)
        model = build_tiny_mlp(30, 2, 2, np.random.default_rng(42))
        method = SecureUldpAvg(
            local_epochs=1, noise_multiplier=1.0, paillier_bits=256,
            compression=spec, dh_group=TOY_DH_GROUP,
        )
        Trainer(fed, method, rounds=1, model=model)
        k = spec.keep_count(model.num_params)
        expected = k * method.protocol.ciphertext_bytes
        assert method.uplink_payload_bytes() == expected
        assert method.uplink_payload_bytes() > LOSSY.payload_bytes(k)


class TestBandwidthScenarios:
    def test_bandwidth_cap_scenario_admits_compressed_silos(self):
        sim = run(smoke_spec("bandwidth-cap", seed=0, rounds=3)).simulator
        assert all(p.silos_seen == sim.fed.n_silos for p in sim.history.participation)
        # The ledger records the compressed uplink, far below dense.
        dense = sim.fed.n_silos * sim.method.payload_bytes(sim.trainer.params.size)
        assert sim.history.comm[0].uplink_bytes < dense / 10

    def test_bandwidth_stragglers_scenario_strands_the_slow_link(self):
        sim = run(smoke_spec("bandwidth-stragglers", seed=0, rounds=6)).simulator
        silos_seen = [p.silos_seen for p in sim.history.participation]
        # The 4x-slower link misses the deadline on some rounds...
        assert min(silos_seen) < sim.fed.n_silos
        # ... but compression keeps the federation alive overall.
        assert max(silos_seen) >= sim.fed.n_silos - 1
        assert all(r.noise_scale <= 1.0 + 1e-12 for r in sim.method.accountant.releases)

    def test_scenarios_listed(self):
        from repro.sim import available_scenarios, describe_scenario

        names = available_scenarios()
        assert "bandwidth-cap" in names and "bandwidth-stragglers" in names
        assert "compress" in describe_scenario("bandwidth-cap")


class TestCheckpointWithCompression:
    def test_kill_and_resume_bit_identical(self, tmp_path):
        spec = smoke_spec("bandwidth-cap", seed=3, rounds=6)
        full = run(spec).simulator

        sim = build_simulator(spec)
        sim.run(stop_after=3)
        save_checkpoint(tmp_path, sim, extra=checkpoint_extra(spec))
        resumed, extra = resume_simulator(tmp_path)
        run_simulator_with_checkpoints(resumed, tmp_path, None, extra=extra)

        assert np.array_equal(full.trainer.params, resumed.trainer.params)
        assert full.history.records == resumed.history.records
        assert full.history.comm == resumed.history.comm
        # The error-feedback residuals (compressor state) resumed exactly.
        for silo in range(full.fed.n_silos):
            np.testing.assert_array_equal(
                full.method.compressor.residual(silo),
                resumed.method.compressor.residual(silo),
            )
