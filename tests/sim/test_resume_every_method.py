"""Resume is bit-identical for *every* method, accountants included.

``test_checkpoint.py`` pins the scheduler's state machines with the
scenario family's default method; this file pins the other axis.  A method
owns its dynamic state (``FLMethod.state_dict`` / ``load_state``), so for
every registered method ``[sim]`` accepts -- and ``secure-uldp-avg`` on the
masked backend -- a run interrupted after two rounds and rebuilt through
``resume_simulator`` must match the uninterrupted run on everything: each
round's epsilon, the final params, the three ledgers, and every accountant
the method holds.

The bug this was written for: until PR 19 the simulator saved
``getattr(method, "accountant", None)``, ULDP-GROUP keeps one accountant
per silo under another name, and a resumed ``uldp-group`` run silently
started its privacy budget again (epsilon by round 3.118 / 4.619 / 3.118 /
4.619 instead of 3.118 / 4.619 / 5.848 / 6.928).
"""

import json

import numpy as np
import pytest
from accounting_reference import rdp_curve

from repro.api import RunSpec
from repro.api.registries import METHODS
from repro.api.runner import build_simulator, checkpoint_extra
from repro.sim import load_checkpoint, resume_simulator, save_checkpoint

ROUNDS, KILL_AT = 4, 2

#: (method, crypto section): every registered method, the secure one on
#: the only backend ``[sim]`` admits.
CONFIGS = [
    pytest.param(
        name, {"backend": "masked"} if name == "secure-uldp-avg" else None,
        id=name,
    )
    for name in METHODS.names()
]


def spec_for(method, crypto, scenario="flaky-silos"):
    tree = {
        "seed": 4,
        "rounds": ROUNDS,
        "sim": {"scenario": scenario, "scale": "smoke"},
        "method": {"name": method, "local_epochs": 1, "group_size": 2},
    }
    if crypto is not None:
        tree["crypto"] = crypto
    return RunSpec.from_dict(tree)


def accountants(method):
    """Every accountant a method holds: its own, and ULDP-GROUP's per-silo
    ones."""
    held = [method.accountant, *getattr(method, "silo_accountants", ())]
    return [a for a in held if a is not None]


def assert_identical(a, b):
    assert [r.epsilon for r in a.history.records] == [
        r.epsilon for r in b.history.records]
    assert np.array_equal(a.trainer.params, b.trainer.params)
    assert a.history.records == b.history.records
    assert a.history.participation == b.history.participation
    assert a.history.comm == b.history.comm
    assert len(accountants(a.method)) == len(accountants(b.method))
    for ours, theirs in zip(accountants(a.method), accountants(b.method)):
        assert np.array_equal(rdp_curve(ours), rdp_curve(theirs))
        assert ours.history == theirs.history
        assert ours.releases == theirs.releases


def killed_and_resumed(spec, path):
    killed = build_simulator(spec)
    killed.run(stop_after=KILL_AT)
    save_checkpoint(path, killed, extra=checkpoint_extra(spec))
    resumed, _ = resume_simulator(str(path))
    assert resumed.rounds_completed == KILL_AT
    return killed, resumed


@pytest.mark.parametrize("method, crypto", CONFIGS)
def test_resumed_run_matches_uninterrupted(method, crypto, tmp_path):
    spec = spec_for(method, crypto)
    uninterrupted = build_simulator(spec)
    uninterrupted.run()
    assert len(uninterrupted.history.records) == ROUNDS
    if uninterrupted.method.is_private:
        # The budget composes across the interruption (what a reset breaks).
        eps = [r.epsilon for r in uninterrupted.history.records]
        assert eps[-1] > eps[KILL_AT - 1] > 0
        assert accountants(uninterrupted.method)

    _, resumed = killed_and_resumed(spec, tmp_path)
    resumed.run()
    assert_identical(uninterrupted, resumed)


def test_uldp_sgd_async_resumes_with_payloads_in_flight(tmp_path):
    # ULDP-SGD's per-silo payloads (inherited with the step API) sit in the
    # async scheduler's pending list across the checkpoint.
    spec = spec_for("uldp-sgd", None, scenario="async-fedbuff")
    uninterrupted = build_simulator(spec)
    uninterrupted.run()
    killed, resumed = killed_and_resumed(spec, tmp_path)
    assert killed._pending and len(resumed._pending) == len(killed._pending)
    resumed.run()
    assert_identical(uninterrupted, resumed)
    assert resumed.round_log == uninterrupted.round_log


@pytest.mark.parametrize("schema, why", [
    # v1 was written while every silo drew from the trainer's shared
    # generator; the spec hash does not move with that, so the schema is
    # what stops it resuming under other draws.
    ("uldp-fl-sim/v1", "predates per-silo generators"),
    # v2 kept user flags in a sharded population block v3 cannot read.
    ("uldp-fl-sim/v2", "v2 holds a sharded user population"),
    # v3 kept the history's logs as tuple rows, not the --output dicts.
    ("uldp-fl-sim/v3", "v3 stores the history as tuple rows"),
])
def test_old_snapshot_is_refused(schema, why, tmp_path):
    spec = spec_for("uldp-avg", None)
    killed_and_resumed(spec, tmp_path)
    state_file = tmp_path / "state.json"
    meta = json.loads(state_file.read_text())
    assert meta["state"]["schema"] == "uldp-fl-sim/v4"
    meta["state"]["schema"] = schema
    state_file.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=why):
        resume_simulator(str(tmp_path))


def test_legacy_uldp_group_snapshot_is_refused(tmp_path):
    # A uldp-group snapshot that holds no per-silo accountants (what the
    # simulator used to write); loading it with fresh ones would
    # under-report epsilon from then on.
    spec = spec_for("uldp-group", None)
    killed, _ = killed_and_resumed(spec, tmp_path)
    state, _ = load_checkpoint(tmp_path)
    assert len(state["method"]["silo_accountants"]) == killed.fed.n_silos
    del state["method"]["silo_accountants"]
    with pytest.raises(ValueError, match="carries no 'silo_accountants' state"):
        build_simulator(spec).load_state(state)


def test_state_from_another_method_is_refused():
    # Either direction: an accountant with nowhere to go, and a method
    # whose accountant the snapshot has nothing for.
    private = build_simulator(spec_for("uldp-avg", None))
    baseline = build_simulator(spec_for("default", None))
    with pytest.raises(ValueError, match="carries 'accountant' state"):
        baseline.load_state(private.state_dict())
    with pytest.raises(ValueError, match="carries no 'accountant' state"):
        private.load_state(baseline.state_dict())
