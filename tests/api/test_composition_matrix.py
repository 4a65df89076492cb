"""What validates, runs; what cannot run is refused at validation.

The exhaustive method x scenario x ``[net]`` x ``method.sample_rate``
matrix (and method x ``[compression]`` in train mode): the verdict of
``validate_spec_names`` -- the function ``repro validate-config``, ``run``,
``sweep``, ``serve`` and ``silo`` share -- must equal the verdict of
actually constructing the run, and a refusal must say which method
collided with which section and name a method that demonstrably works in
the same cell.

Until PR 19 ``validate-config`` printed OK for e.g. ``default`` x
``async-fedbuff`` and ``repro run`` then died with a ``TypeError``
traceback (exit 1) from ``FederationSimulator.__init__``.
"""

import itertools
import json
import re

import pytest

from repro.api.registries import METHODS
from repro.api.runner import build_simulator, build_trainer, validate_spec_names
from repro.api.spec import RunSpec, SpecError
from repro.cli import main
from repro.sim import available_scenarios

#: What the constructors' own guards raise for a programmatic caller.
GUARD_ERRORS = (ValueError, TypeError, NotImplementedError)
NET = {"port": 0}
TOPK = {"sparsify": "topk", "fraction": 0.1}

#: (method, crypto section): each registered method as a bare spec names
#: it, plus the secure one on the backend ``[sim]`` admits.
CONFIGS = [(name, None) for name in METHODS.names()] + [
    ("secure-uldp-avg", {"backend": "masked"})
]
IDS = [name + ("-masked" if crypto else "") for name, crypto in CONFIGS]


def sim_tree(method, crypto, scenario, net, sample_rate):
    tree = {
        "sim": {"scenario": scenario, "scale": "smoke"},
        "method": {"name": method, "local_epochs": 1, "group_size": 2},
    }
    if sample_rate is not None:
        tree["method"]["sample_rate"] = sample_rate
    if crypto is not None:
        tree["crypto"] = crypto
    if net:
        tree["net"] = NET
    return tree


def validation_verdict(tree):
    """None when the spec validates, else the ``SpecError`` -- the only
    exception either step may raise."""
    try:
        spec = RunSpec.from_dict(tree)
        validate_spec_names(spec)
    except SpecError as refusal:
        return refusal
    return None


def construct(tree):
    """Build the run exactly as ``repro run`` / ``serve`` would."""
    spec = RunSpec.from_dict(tree)
    if spec.net is not None:
        from repro.net.server import FederationServer

        return FederationServer(spec).sim.method
    if spec.is_simulation:
        return build_simulator(spec).method
    return build_trainer(spec).method


def assert_verdicts_agree(tree, refusal):
    if refusal is None:
        construct(tree).close()  # anything raised here is the bug
        return
    try:
        RunSpec.from_dict(tree)
    except SpecError:
        return  # refused before there is a spec to construct from
    with pytest.raises(GUARD_ERRORS):
        construct(tree)


def suggested_method(refusal):
    found = re.search(r'method\.name = "([\w-]+)"', str(refusal))
    return found.group(1) if found else None


@pytest.mark.parametrize("method, crypto", CONFIGS, ids=IDS)
def test_simulate_matrix(method, crypto):
    cells = itertools.product(available_scenarios(), (False, True), (None, 0.5))
    for scenario, net, sample_rate in cells:
        cell = (method, scenario, "net" if net else "in-process", sample_rate)
        tree = sim_tree(method, crypto, scenario, net, sample_rate)
        refusal = validation_verdict(tree)
        assert_verdicts_agree(tree, refusal)
        if refusal is None:
            continue
        message = str(refusal)
        assert re.search(r"\b(sim|net|crypto|method\.sample_rate)\b", message), cell
        assert method in message or "crypto.backend" in message, cell
        # "A method that would work" is checked, not trusted: whenever
        # some method validates in this cell, the refusal names one.
        working = [
            other for other, other_crypto in CONFIGS
            if validation_verdict(
                sim_tree(other, other_crypto, scenario, net, sample_rate)
            ) is None
        ]
        if working and "crypto.backend" not in message:
            assert suggested_method(refusal) in working, (cell, message)


@pytest.mark.parametrize("method, crypto", CONFIGS, ids=IDS)
@pytest.mark.parametrize("compression", [None, TOPK], ids=["dense", "topk"])
def test_train_matrix(method, crypto, compression):
    tree = {
        "rounds": 1,
        "dataset": {"users": 8, "silos": 2, "records": 120, "test_records": 40},
        "method": {"name": method, "local_epochs": 1, "group_size": 2},
    }
    if crypto is not None:
        tree["crypto"] = crypto
    if compression is not None:
        tree["compression"] = compression
    refusal = validation_verdict(tree)
    assert_verdicts_agree(tree, refusal)
    if refusal is not None:
        message = str(refusal)
        assert method in message and "[compression]" in message
        substituted = {**tree, "method": {"name": suggested_method(refusal)}}
        substituted.pop("crypto", None)
        assert validation_verdict(substituted) is None


def test_what_the_matrix_settles():
    """The cells the issue names, spelled out so the matrix cannot pass by
    refusing everything (or nothing)."""
    def verdict(method, scenario, net=False, sample_rate=None):
        return validation_verdict(sim_tree(method, None, scenario, net, sample_rate))

    for method in ("uldp-sgd", "uldp-sgd-w", "uldp-avg", "uldp-avg-w"):
        for scenario in ("async-fedbuff", "bandwidth-cap", "ideal-sync"):
            assert verdict(method, scenario) is None
        assert verdict(method, "ideal-sync", net=True) is None
        assert verdict(method, "ideal-sync", sample_rate=0.5) is None
        assert "method.sample_rate" in str(
            verdict(method, "async-fedbuff", sample_rate=0.5))
        assert str(verdict(method, "async-fedbuff", net=True)).startswith("net:")
    for method in ("default", "uldp-naive", "uldp-group"):
        assert verdict(method, "ideal-sync") is None
        assert "has_silo_step" in str(verdict(method, "async-fedbuff"))
        assert "has_silo_step" in str(verdict(method, "ideal-sync", net=True))
        assert "lossy update compression" in str(verdict(method, "bandwidth-cap"))
    masked = {"backend": "masked"}
    secure = "secure-uldp-avg"
    assert validation_verdict(
        sim_tree(secure, masked, "flaky-silos", False, 0.5)) is None
    # A "secure" run merging plaintext per-silo payloads is not one.
    assert "has_silo_step" in str(validation_verdict(
        sim_tree(secure, masked, "async-fedbuff", False, None)))
    assert "sparsify='randk'" in str(validation_verdict(
        sim_tree(secure, masked, "bandwidth-cap", False, None)))


def test_min_quorum_above_the_roster_is_refused_at_validation():
    tree = sim_tree("uldp-avg-w", None, "ideal-sync", True, None)
    tree["net"] = {"port": 0, "min_quorum": 4}
    assert "net.min_quorum=4 exceeds the 3 silos" in str(validation_verdict(tree))
    assert_verdicts_agree(tree, validation_verdict(tree))


@pytest.mark.parametrize("method", ["default", "uldp-group", "uldp-naive"])
def test_a_validated_baseline_scenario_run_prints_its_result(method, capsys):
    # Found on the way: a [sim] run of a method without a single
    # ``accountant`` trained to the end and then died printing the release
    # summary (``sim.method.accountant.releases``; exit 1, traceback).
    assert main([
        "run", "--set", f"method.name={method}", "--set", "method.group_size=2",
        "--set", "sim.scenario=flaky-silos", "--set", "sim.scale=smoke",
    ]) == 0
    assert method.upper() in capsys.readouterr().out


#: (command, spec tree) of combinations that stay refused.
STILL_REFUSED = [
    pytest.param(
        "run", sim_tree("default", None, "async-fedbuff", False, None),
        id="default-async"),
    pytest.param(
        "serve", sim_tree("uldp-naive", None, "ideal-sync", True, None),
        id="naive-net"),
    pytest.param(
        "run", {"method": {"name": "uldp-group"}, "compression": TOPK},
        id="group-topk"),
]


@pytest.mark.parametrize("command, tree", STILL_REFUSED)
def test_refused_combination_is_one_error_line_and_exit_2(
    command, tree, capsys, tmp_path
):
    spec_file = tmp_path / "refused.json"
    spec_file.write_text(json.dumps(tree))
    # A raise out of main() is the old bug (TypeError, exit 1, traceback).
    assert main([command, "--config", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err

    assert main(["validate-config", str(spec_file)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and "OK" not in captured.out
