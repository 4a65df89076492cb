"""[net] spec-section tests: validation messages and hash-stable round-trips.

The handshake rejects a silo whose spec hash differs from the server's,
so the [net] section (fault plan included) must survive every
serialisation path -- dict, TOML file, checkpoint JSON -- with an
identical hash.
"""

import pytest

from repro.api import RunSpec
from repro.api.spec import SpecError, spec_hash


def net_tree(**net):
    base = {
        "name": "net-spec-test",
        "seed": 3,
        "sim": {"scenario": "ideal-sync", "scale": "smoke"},
        "net": net,
    }
    return base


class TestValidation:
    def test_net_requires_sim(self):
        with pytest.raises(SpecError, match=r"only meaningful alongside \[sim\]"):
            RunSpec.from_dict({"seed": 0, "net": {"port": 0}})

    def test_defaults_validate(self):
        spec = RunSpec.from_dict(net_tree())
        assert spec.net.host == "127.0.0.1"
        assert spec.net.min_quorum == 1
        assert spec.net.faults == {}

    @pytest.mark.parametrize("field,value,msg", [
        ("port", 70000, "port must lie"),
        ("round_timeout", 0, "round_timeout must be positive"),
        ("min_quorum", 0, "min_quorum must be at least 1"),
        ("backoff_jitter", 1.5, "backoff_jitter must lie"),
        ("connect_retries", -1, "connect_retries must be non-negative"),
    ])
    def test_bad_values_named_in_the_error(self, field, value, msg):
        with pytest.raises(SpecError, match=msg):
            RunSpec.from_dict(net_tree(**{field: value}))

    def test_fault_tree_validated_at_spec_time(self):
        # A typo'd fault plan fails at validate-config time, not minutes
        # into a chaos run, and keeps the events[i] locator.
        with pytest.raises(SpecError, match=r"faults: events\[0\]"):
            RunSpec.from_dict(net_tree(
                faults={"events": [{"silo": 0, "action": "melt",
                                    "round": 1}]}
            ))

    def test_unknown_net_key_rejected(self):
        with pytest.raises(SpecError, match="quorum_min"):
            RunSpec.from_dict(net_tree(quorum_min=2))


class TestSecureMethodIsInProcessOnly:
    """``[net]`` + ``secure-uldp-avg`` is refused at the spec, so
    ``validate-config``, ``serve`` (``FederationServer``) and ``silo``
    (``SiloClient``) -- which all take a ``RunSpec`` -- refuse it with one
    message.  Until PR 18 such a run "worked": every silo shipped its
    users' clipped deltas to the server in the clear and the server masked
    them itself.  In-process masked aggregation and its dropout recovery
    stay covered by the ``masked-dropout`` golden fingerprint,
    ``tests/sim/test_checkpoint_secure.py`` and ``tests/protocol``.
    """

    TREE = {
        **net_tree(port=0),
        "method": {"name": "secure-uldp-avg", "local_epochs": 1},
        "crypto": {"backend": "masked"},
    }
    MESSAGE = "secure-uldp-avg' runs in-process only"

    def test_refused_at_the_spec(self):
        with pytest.raises(SpecError, match=self.MESSAGE) as refusal:
            RunSpec.from_dict(self.TREE)
        assert "in the clear" in str(refusal.value)  # it says why
        # Each half is fine on its own.
        RunSpec.from_dict({k: v for k, v in self.TREE.items() if k != "net"})
        RunSpec.from_dict(net_tree(port=0))

    @pytest.mark.parametrize("argv, code", [
        (["validate-config", "SPEC"], 1),
        (["serve", "--config", "SPEC"], 2),
        (["silo", "--config", "SPEC", "--silo-id", "0", "--port", "1"], 2),
    ], ids=["validate-config", "serve", "silo"])
    def test_every_entry_point_refuses_with_that_message(
            self, tmp_path, capsys, argv, code):
        import json

        from repro.cli import main

        path = tmp_path / "secure_net.json"
        path.write_text(json.dumps(self.TREE))
        assert main([str(path) if a == "SPEC" else a for a in argv]) == code
        captured = capsys.readouterr()
        assert self.MESSAGE in captured.err
        assert "Traceback" not in captured.err


class TestRoundTrips:
    FAULTS = {
        "events": [
            {"silo": 2, "action": "timeout", "round": 1, "value": 3.0},
            {"silo": 0, "action": "partition", "start": 0, "stop": 2,
             "value": 0.5},
        ],
        "drop_rate": 0.1,
        "seed": 7,
    }

    def test_dict_round_trip_is_hash_identical(self):
        spec = RunSpec.from_dict(net_tree(min_quorum=2, faults=self.FAULTS))
        again = RunSpec.from_dict(spec.to_dict())
        assert spec_hash(again) == spec_hash(spec)
        assert again.net == spec.net

    #: ``net_tree(port=9000, round_timeout=2.0, min_quorum=2, faults=FAULTS)``
    #: as a spec file spells it: the fault plan is a nested table whose
    #: events are an array of inline tables.
    NET_TOML = """
name = "net-spec-test"
seed = 3

[sim]
scenario = "ideal-sync"
scale = "smoke"

[net]
port = 9000
round_timeout = 2.0
min_quorum = 2

[net.faults]
events = [
    {silo = 2, action = "timeout", round = 1, value = 3.0},
    {silo = 0, action = "partition", start = 0, stop = 2, value = 0.5},
]
drop_rate = 0.1
seed = 7
"""

    def test_toml_round_trip_is_hash_identical(self, tmp_path):
        spec = RunSpec.from_dict(net_tree(
            port=9000, round_timeout=2.0, min_quorum=2, faults=self.FAULTS
        ))
        path = tmp_path / "net.toml"
        path.write_text(self.NET_TOML)
        again = RunSpec.from_file(path)
        assert spec_hash(again) == spec_hash(spec)
        assert again.net.faults == self.FAULTS

    def test_net_section_changes_the_hash(self):
        # The handshake leans on this: a server and silo disagreeing
        # about timeouts or fault plans must not pass as "same spec".
        base = RunSpec.from_dict(net_tree())
        tweaked = RunSpec.from_dict(net_tree(round_timeout=1.0))
        assert spec_hash(base) != spec_hash(tweaked)
