"""Oracle equivalence: the spec path reproduces the direct-constructor
path bit for bit.

The reference side of each test constructs dataset/method/Trainer (or the
scenario simulator) by hand, exactly as the seed code did before specs
existed; the spec side routes a literal :class:`RunSpec` tree describing
the same run through ``repro.api.run``.  Histories must match bit for bit
(wall-clock ``round_seconds`` excluded).  The flag shims that used to sit
between the two are gone; the class names keep "Shim" only so the test
ids stay stable.
"""

import argparse
import json

import numpy as np
import pytest

from repro.api.runner import run
from repro.api.spec import RunSpec
from repro.report import history_to_dict


def _strip_volatile(history) -> dict:
    data = history_to_dict(history)
    data.pop("spec", None)
    data.pop("spec_hash", None)
    return data


def _spec(method: dict, dataset: dict | None = None, **top) -> RunSpec:
    """The spec side: a literal tree over the reference side's defaults."""
    return RunSpec.from_dict({
        "seed": 0,
        "rounds": 2,
        "dataset": {"name": "creditcard", "users": 10, "silos": 2,
                    "records": 150, "distribution": "zipf", **(dataset or {})},
        "method": {"sigma": 5.0, **method},
        "privacy": {"delta": 1e-5},
        **top,
    })


def _train_args(**overrides) -> argparse.Namespace:
    """The reference side's knobs (what the seed CLI's flags carried)."""
    defaults = dict(
        dataset="creditcard", method="uldp-avg-w", rounds=2, users=10,
        silos=2, records=150, distribution="zipf", non_iid=False, sigma=5.0,
        delta=1e-5, local_epochs=1, batch_size=None, group_size=8,
        sample_rate=None, seed=0, compress="none", compress_fraction=0.05,
        quantize_bits=None, error_feedback=False, compress_downlink=False,
        output=None,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def _legacy_train(args):
    """The seed CLI's hand construction, verbatim."""
    from repro.compress import CompressionSpec
    from repro.core import Default, Trainer, UldpAvg, UldpGroup, UldpNaive, UldpSgd
    from repro.data import build_creditcard_benchmark

    fed = build_creditcard_benchmark(
        n_users=args.users, n_silos=args.silos, distribution=args.distribution,
        n_records=args.records, seed=args.seed,
    )
    sigma = args.sigma
    if args.method == "default":
        method = Default(local_epochs=args.local_epochs)
    elif args.method == "uldp-naive":
        method = UldpNaive(noise_multiplier=sigma, local_epochs=args.local_epochs)
    elif args.method == "uldp-group":
        method = UldpGroup(
            group_size=args.group_size, noise_multiplier=sigma,
            local_steps=args.local_epochs,
            expected_batch_size=args.batch_size or 256,
        )
    elif args.method == "uldp-sgd":
        method = UldpSgd(noise_multiplier=sigma, user_sample_rate=args.sample_rate)
    elif args.method == "uldp-avg":
        method = UldpAvg(
            noise_multiplier=sigma, local_epochs=args.local_epochs,
            user_sample_rate=args.sample_rate,
        )
    else:
        method = UldpAvg(
            noise_multiplier=sigma, local_epochs=args.local_epochs,
            weighting="proportional", user_sample_rate=args.sample_rate,
        )
    compression = None
    if args.compress != "none" or args.quantize_bits is not None:
        compression = CompressionSpec(
            sparsify=args.compress, fraction=args.compress_fraction,
            quantize_bits=args.quantize_bits, error_feedback=args.error_feedback,
            downlink=args.compress_downlink, seed=args.seed,
        )
    trainer = Trainer(
        fed, method, rounds=args.rounds, delta=args.delta, seed=args.seed,
        compression=compression,
    )
    return trainer.run()


class TestTrainShimOracle:
    def test_uldp_avg_w_with_compression_bit_identical(self):
        """The acceptance-criteria case: uldp-avg-w + lossy compression."""
        args = _train_args(
            rounds=3, users=12, silos=3, records=200, compress="topk",
            compress_fraction=0.05, quantize_bits=8, error_feedback=True,
        )
        legacy = _legacy_train(args)
        result = run(_spec(
            {"name": "uldp-avg-w", "local_epochs": 1},
            dataset={"users": 12, "silos": 3, "records": 200},
            rounds=3,
            compression={"sparsify": "topk", "fraction": 0.05,
                         "quantize_bits": 8, "error_feedback": True,
                         "downlink": False, "seed": 0},
        ))
        assert _strip_volatile(result.history) == _strip_volatile(legacy)

    @pytest.mark.parametrize("method", [
        {"name": "default", "local_epochs": 1},
        {"name": "uldp-naive", "local_epochs": 1},
        {"name": "uldp-group", "local_epochs": 1, "group_size": 8},
        {"name": "uldp-sgd"},
        {"name": "uldp-avg", "local_epochs": 1},
    ], ids=lambda tree: tree["name"])
    def test_every_method_bit_identical(self, method):
        legacy = _legacy_train(_train_args(method=method["name"]))
        result = run(_spec(method))
        assert _strip_volatile(result.history) == _strip_volatile(legacy)

    def test_subsampled_run_bit_identical(self):
        args = _train_args(method="uldp-avg-w", sample_rate=0.5, users=20)
        legacy = _legacy_train(args)
        result = run(_spec(
            {"name": "uldp-avg-w", "local_epochs": 1, "sample_rate": 0.5},
            dataset={"users": 20},
        ))
        assert _strip_volatile(result.history) == _strip_volatile(legacy)

    def test_history_is_spec_stamped(self):
        spec = _spec({"name": "uldp-avg-w", "local_epochs": 1})
        result = run(spec)
        assert result.history.spec_hash == spec.hash()
        assert result.history.spec == spec.to_dict()
        # And the stamp survives the JSON archive round-trip.
        from repro.report import history_from_dict

        again = history_from_dict(json.loads(json.dumps(history_to_dict(result.history))))
        assert again.spec_hash == spec.hash()
        assert again.spec == spec.to_dict()


class TestSimulateShimOracle:
    @staticmethod
    def _sim_spec(scenario: str, **sim) -> RunSpec:
        return RunSpec.from_dict(
            {"seed": 0, "sim": {"scenario": scenario, "scale": "smoke", **sim}}
        )

    def _legacy_scenario(self, name: str, scale: str, seed: int):
        """The seed build_scenario construction, verbatim."""
        from repro.core import UldpAvg
        from repro.data import build_creditcard_benchmark
        from repro.sim.scenarios import _scale_params
        from repro.sim.scheduler import FederationSimulator, SimConfig

        from repro.api.registries import SCENARIOS

        params = _scale_params(scale)
        fed = build_creditcard_benchmark(
            n_users=params["n_users"], n_silos=params["n_silos"],
            distribution="zipf", n_records=params["n_records"],
            n_test=params["n_test"], seed=seed,
        )
        method = UldpAvg(
            noise_multiplier=5.0, local_epochs=1, weighting="proportional"
        )
        overrides = SCENARIOS.get(name)(params["rounds"], fed.n_silos)
        config = SimConfig(rounds=params["rounds"], seed=seed + 1, **overrides)
        sim = FederationSimulator(fed, method, config)
        sim.run()
        return sim

    @pytest.mark.parametrize("scenario", ["silo-outage", "async-fedbuff"])
    def test_scenario_bit_identical(self, scenario):
        legacy = self._legacy_scenario(scenario, "smoke", seed=0)
        result = run(self._sim_spec(scenario))
        assert _strip_volatile(result.history) == _strip_volatile(legacy.history)
        np.testing.assert_array_equal(
            result.simulator.trainer.params, legacy.trainer.params
        )

    def test_sim_history_spec_stamped(self):
        spec = self._sim_spec("ideal-sync")
        result = run(spec)
        assert result.history.spec_hash == spec.hash()


class TestCheckpointSpecGuard:
    def _run_checkpointed(self, tmp_path):
        spec = TestSimulateShimOracle._sim_spec(
            "silo-outage", checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
        )
        return spec, run(spec)

    def test_resume_verifies_and_restamps(self, tmp_path):
        from repro.sim.scenarios import resume_simulator

        spec, result = self._run_checkpointed(tmp_path)
        sim, extra = resume_simulator(str(tmp_path / "ckpt"))
        assert extra["spec_hash"] == spec.hash()
        assert sim.history.spec_hash == spec.hash()
        # The resumed simulator is the finished run, bit for bit.
        np.testing.assert_array_equal(
            sim.trainer.params, result.simulator.trainer.params
        )
        assert _strip_volatile(sim.history) == _strip_volatile(result.history)

    def test_tampered_spec_refused(self, tmp_path):
        from repro.api.spec import SpecError
        from repro.sim.scenarios import resume_simulator

        self._run_checkpointed(tmp_path)
        state_file = tmp_path / "ckpt" / "state.json"
        meta = json.loads(state_file.read_text())
        meta["extra"]["spec"]["method"]["sigma"] = 0.001  # quieter than run
        state_file.write_text(json.dumps(meta))
        with pytest.raises(SpecError, match="hash mismatch"):
            resume_simulator(str(tmp_path / "ckpt"))

    def test_tampered_hash_refused(self, tmp_path):
        from repro.api.spec import SpecError
        from repro.sim.scenarios import resume_simulator

        self._run_checkpointed(tmp_path)
        state_file = tmp_path / "ckpt" / "state.json"
        meta = json.loads(state_file.read_text())
        meta["extra"]["spec_hash"] = "0" * 16
        state_file.write_text(json.dumps(meta))
        with pytest.raises(SpecError, match="hash mismatch"):
            resume_simulator(str(tmp_path / "ckpt"))

    def test_pre_spec_checkpoint_still_resumes(self, tmp_path):
        """Legacy checkpoints (no spec payload) keep working unverified."""
        from repro.sim.scenarios import resume_simulator, run_scenario

        sim = run_scenario(
            "silo-outage", scale="smoke", seed=0,
            checkpoint_dir=str(tmp_path / "old"), checkpoint_every=1,
        )
        resumed, extra = resume_simulator(str(tmp_path / "old"))
        assert "spec" not in extra
        np.testing.assert_array_equal(resumed.trainer.params, sim.trainer.params)


class TestRunnerValidation:
    def test_run_rejects_sweep_spec(self):
        from repro.api.spec import SpecError

        spec = RunSpec.from_dict({"sweep": {"method.sigma": [1.0]}})
        with pytest.raises(SpecError, match="sweep"):
            run(spec)

    def test_unknown_dataset_resolved_at_run(self):
        from repro.api.registries import UnknownNameError

        spec = RunSpec.from_dict({"dataset": {"name": "no-such-set"}})
        with pytest.raises(UnknownNameError, match="dataset"):
            run(spec)

    def test_named_model_runs(self):
        spec = RunSpec.from_dict({
            "rounds": 1,
            "dataset": {"users": 6, "silos": 2, "records": 80},
            "model": {"name": "creditcard-mlp"},
            "method": {"local_epochs": 1},
        })
        result = run(spec)
        assert len(result.history.records) == 1

    def test_secure_method_via_crypto_section(self):
        """Crypto wiring: Protocol 1 configured declaratively."""
        spec = RunSpec.from_dict({
            "rounds": 1,
            "dataset": {"users": 4, "silos": 2, "records": 60},
            # The wiring is the subject, not the round: the default MLP
            # would spend 4 s encrypting 4 130 coordinates.
            "model": {"name": "logistic"},
            "method": {"name": "secure-uldp-avg", "local_epochs": 1},
            "crypto": {"backend": "fast", "paillier_bits": 256},
        })
        result = run(spec)
        assert result.history.final.epsilon is not None
        # The stamped snapshot records the crypto wiring.
        assert result.history.spec["crypto"]["paillier_bits"] == 256
