"""Kill/resume of a *masked secure* simulation must be bit-identical.

Mirrors ``tests/sim/test_checkpoint.py`` for the ``crypto_backend="masked"``
path: the pairwise mask streams are derived from the protocol round
counter, so a resume that lost (or double-counted) that counter would mask
round k+1 with round k's streams -- cancellation would still hide the bug
in the aggregate, which is why the assertions pin the full trainer state
bit for bit, including rounds aggregated after the resume.
"""

import numpy as np
import pytest
from toy_crypto import TOY_DH_GROUP

from repro.api import RunSpec
from repro.api.spec import SpecError
from repro.api.runner import build_simulator, checkpoint_extra
from repro.sim import resume_simulator, save_checkpoint
from repro.sim.scenarios import run_simulator_with_checkpoints


def masked_spec(seed=9):
    return RunSpec.from_dict({
        "seed": seed,
        # flaky-silos drops silos mid-run, so resumed rounds exercise the
        # dropout-recovery path, not just full-roster cancellation.
        "sim": {"scenario": "flaky-silos", "scale": "smoke"},
        "method": {"name": "secure-uldp-avg", "local_epochs": 1, "sigma": 1.0},
        "crypto": {"backend": "masked"},
    })


def paillier_simulator(scenario, seed):
    """A smoke-scale simulator running Paillier ``SecureUldpAvg``, built
    by hand as ``build_simulator`` would (a spec refuses the pairing):
    bind, then the scenario's ``SimConfig``, then the simulator."""
    from repro.protocol import SecureUldpAvg
    from repro.sim import FederationSimulator, SimConfig
    from repro.sim.scenarios import bind_scenario, scenario_recipe

    method = SecureUldpAvg(
        local_epochs=1, noise_multiplier=1.0, paillier_bits=256,
        dh_group=TOY_DH_GROUP,
    )
    sizes, overrides = scenario_recipe(scenario, "smoke")
    fed = bind_scenario(scenario, "smoke", seed, None, method)
    config = SimConfig(rounds=sizes["rounds"], seed=seed + 1, **overrides)
    return FederationSimulator(
        fed, method, config, model=method.model, rng=method.rng)


def assert_identical(a, b):
    """Full bit-identity of two finished simulators (checkpoint suite's)."""
    assert np.array_equal(a.trainer.params, b.trainer.params)
    assert a.history.records == b.history.records
    assert a.history.participation == b.history.participation
    assert a.history.comm == b.history.comm
    assert a.round_log == b.round_log
    assert np.array_equal(a.method.accountant._rhos, b.method.accountant._rhos)
    assert a.method.accountant.history == b.method.accountant.history
    assert a.method.accountant.releases == b.method.accountant.releases
    assert a.trainer.rng.bit_generator.state == b.trainer.rng.bit_generator.state
    assert a.sim_rng.bit_generator.state == b.sim_rng.bit_generator.state


class TestMaskedKillAndResume:
    def test_killed_mid_run_resumes_bit_identically(self, tmp_path):
        spec = masked_spec()
        uninterrupted = build_simulator(spec)
        uninterrupted.run()

        killed = build_simulator(spec)
        killed.run(stop_after=1)  # "crash" after the first masked round
        save_checkpoint(tmp_path, killed, extra=checkpoint_extra(spec))
        resumed, extra = resume_simulator(str(tmp_path))
        run_simulator_with_checkpoints(resumed, str(tmp_path), None, extra=extra)
        assert resumed.done
        assert_identical(uninterrupted, resumed)
        # The mask schedule resumed where it stopped: both protocols sit at
        # the same round counter and derived identical per-round keys
        # (otherwise params above could not be bit-identical).
        assert (
            resumed.method.protocol.round_no
            == uninterrupted.method.protocol.round_no
        )

    def test_protocol_round_counter_survives_the_roundtrip(self, tmp_path):
        spec = masked_spec(seed=4)
        sim = build_simulator(spec)
        sim.run(stop_after=2)
        saved_round_no = sim.method.protocol.round_no
        assert saved_round_no > 0  # masked rounds actually ran
        save_checkpoint(tmp_path, sim, extra=checkpoint_extra(spec))

        fresh = build_simulator(spec)
        assert fresh.method.protocol.round_no == 0
        from repro.sim import load_checkpoint

        state, _ = load_checkpoint(tmp_path)
        fresh.load_state(state)
        assert fresh.method.protocol.round_no == saved_round_no

    def test_resume_with_wrong_method_is_refused(self, tmp_path):
        # A checkpoint carrying masked-protocol state must not silently
        # load into a plaintext method (whose masks would never re-align).
        spec = masked_spec(seed=2)
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra=checkpoint_extra(spec))
        from repro.sim import load_checkpoint

        state, _ = load_checkpoint(tmp_path)
        plain = build_simulator(RunSpec.from_dict(
            {"seed": 2, "sim": {"scenario": "flaky-silos", "scale": "smoke"}}))
        with pytest.raises(ValueError, match="carries 'protocol' state"):
            plain.load_state(state)

    def test_wrong_method_refusal_names_the_likely_cause(self, tmp_path):
        # The refusal must point at the actionable mistake (an edited
        # scenario/method), not just state that loading failed.
        spec = masked_spec(seed=2)
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra=checkpoint_extra(spec))
        from repro.sim import load_checkpoint

        state, _ = load_checkpoint(tmp_path)
        plain = build_simulator(RunSpec.from_dict(
            {"seed": 2, "sim": {"scenario": "flaky-silos", "scale": "smoke"}}))
        with pytest.raises(
            ValueError,
            match="rebuilt method cannot restore it; was the scenario's "
            "method changed",
        ):
            plain.load_state(state)

    def test_resume_with_wrong_crypto_backend_is_refused(self, tmp_path):
        # Masked-protocol state into a Paillier-backend rebuild: the method
        # *has* the restore hook, but the backends disagree -- the refusal
        # must name the crypto section, not the method.
        spec = masked_spec(seed=3)
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        save_checkpoint(tmp_path, sim, extra=checkpoint_extra(spec))
        from repro.sim import load_checkpoint

        state, _ = load_checkpoint(tmp_path)
        # A spec cannot pair [sim] with Paillier (RunSpec rejects it), so
        # the mismatched rebuild is made below the spec layer.
        paillier = paillier_simulator("ideal-sync", seed=3)
        with pytest.raises(
            ValueError,
            match="disagree about the crypto backend; was the spec's "
            "crypto section changed",
        ):
            paillier.load_state(state)

    def test_checkpoint_naming_mask_bits_is_refused(self, tmp_path):
        # A checkpoint whose spec snapshot still sizes the mask field
        # describes a configuration this build cannot run.
        spec = masked_spec(seed=4)
        sim = build_simulator(spec)
        sim.run(stop_after=1)
        extra = checkpoint_extra(spec)
        extra["spec"]["crypto"]["mask_bits"] = 256
        save_checkpoint(tmp_path, sim, extra=extra)
        with pytest.raises(SpecError, match=r"crypto\.mask_bits: unknown key"):
            resume_simulator(tmp_path)
