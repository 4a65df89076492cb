"""Spec serialisation round-trips: dict and JSON both ways; TOML is an
input format, so the TOML cases read committed literal text."""

import json
import tomllib

import pytest

from repro.api.spec import RunSpec, SpecError

#: A spec exercising every section, nested CompressionSpec, and sweep axes.
FULL_TREE = {
    "name": "roundtrip",
    "seed": 3,
    "rounds": 7,
    "eval_every": 2,
    "dataset": {
        "name": "mnist",
        "users": 40,
        "silos": 4,
        "records": 900,
        "test_records": 200,
        "distribution": "uniform",
        "non_iid": True,
        "seed": 11,
    },
    "model": {"name": "mnist-cnn"},
    "method": {
        "name": "uldp-avg",
        "sigma": 2.5,
        "clip": 0.8,
        "local_epochs": 3,
        "local_lr": 0.1,
        "batch_size": 32,
        "sample_rate": 0.5,
    },
    "privacy": {"delta": 1e-6},
    "compression": {
        "sparsify": "topk",
        "fraction": 0.1,
        "quantize_bits": 8,
        "error_feedback": True,
        "seed": 5,
    },
    "sweep": {
        "method.sigma": [0.5, 1.0, 2.0],
        "method.local_epochs": [1, 2],
    },
}

SIM_TREE = {
    "name": "sim-roundtrip",
    "seed": 1,
    "sim": {
        "scenario": "bandwidth-cap",
        "scale": "smoke",
        "checkpoint_every": 2,
    },
    "method": {"sigma": 3.0},
    "sweep": {"sim.scenario": ["ideal-sync", "bandwidth-cap"]},
}


#: The same two specs as a person would write them in a file: defaults
#: left out, an integer where a float is expected, a multi-line array.
TOML_TEXT = {
    "roundtrip": """
name = "roundtrip"
seed = 3
rounds = 7
eval_every = 2

[dataset]
name = "mnist"
users = 40
silos = 4
records = 900
test_records = 200
distribution = "uniform"
non_iid = true
seed = 11

[model]
name = "mnist-cnn"

[method]
name = "uldp-avg"
sigma = 2.5
clip = 0.8
local_epochs = 3
local_lr = 0.1
batch_size = 32
sample_rate = 0.5

[privacy]
delta = 1e-06

[compression]
sparsify = "topk"
fraction = 0.1
quantize_bits = 8
error_feedback = true
seed = 5

[sweep]
"method.sigma" = [
    0.5,
    1.0,  # axis values are not coerced: an integer 1 here is another hash
    2.0,
]
"method.local_epochs" = [1, 2]
""",
    "sim-roundtrip": """
name = "sim-roundtrip"
seed = 1

[sim]
scenario = "bandwidth-cap"
scale = "smoke"
checkpoint_every = 2

[method]
sigma = 3

[sweep]
"sim.scenario" = ["ideal-sync", "bandwidth-cap"]
""",
}


@pytest.fixture(params=["train", "sim"])
def spec(request):
    return RunSpec.from_dict(FULL_TREE if request.param == "train" else SIM_TREE)


@pytest.fixture
def toml_text(spec):
    return TOML_TEXT[spec.name]


class TestRoundTrips:
    def test_dict_roundtrip_exact(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_roundtrip_exact(self, spec):
        assert RunSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_hash_survives_roundtrip(self, spec, toml_text):
        again = RunSpec.from_dict(tomllib.loads(toml_text))
        assert again.hash() == spec.hash()

    def test_file_roundtrip(self, spec, toml_text, tmp_path):
        toml_path = tmp_path / "spec.toml"
        json_path = tmp_path / "spec.json"
        toml_path.write_text(toml_text)
        json_path.write_text(spec.to_json())
        assert RunSpec.from_file(toml_path) == spec
        assert RunSpec.from_file(json_path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("a: 1")
        with pytest.raises(SpecError, match="yaml"):
            RunSpec.from_file(path)
