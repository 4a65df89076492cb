"""Spec serialisation round-trips: dict, JSON, TOML (our writer read back
by the stdlib parser), files."""

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


@pytest.fixture(params=["train", "sim"])
def spec(request):
    return RunSpec.from_dict(FULL_TREE if request.param == "train" else SIM_TREE)


class TestRoundTrips:
    def test_dict_roundtrip_exact(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_roundtrip_exact(self, spec):
        assert RunSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_toml_roundtrip_exact(self, spec):
        assert RunSpec.from_dict(tomllib.loads(spec.to_toml())) == spec

    def test_chained_toml_json_toml(self, spec):
        """TOML -> spec -> JSON -> spec -> TOML is a fixed point."""
        via_toml = RunSpec.from_dict(tomllib.loads(spec.to_toml()))
        via_json = RunSpec.from_dict(json.loads(via_toml.to_json()))
        assert via_json == spec
        assert via_json.to_toml() == spec.to_toml()

    def test_hash_survives_roundtrip(self, spec):
        again = RunSpec.from_dict(tomllib.loads(spec.to_toml()))
        assert again.hash() == spec.hash()

    def test_file_roundtrip(self, spec, tmp_path):
        toml_path = tmp_path / "spec.toml"
        json_path = tmp_path / "spec.json"
        toml_path.write_text(spec.to_toml())
        json_path.write_text(spec.to_json())
        assert RunSpec.from_file(toml_path) == spec
        assert RunSpec.from_file(json_path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("a: 1")
        with pytest.raises(SpecError, match="yaml"):
            RunSpec.from_file(path)


class TestTomlWriter:
    def test_none_fields_omitted(self):
        text = RunSpec.from_dict({}).to_toml()
        assert "global_lr" not in text  # None -> omitted
        assert "rounds" not in text  # None at the root too

    def test_quoted_dotted_sweep_keys(self):
        text = RunSpec.from_dict(
            {"sweep": {"method.sigma": [0.5]}}
        ).to_toml()
        assert '"method.sigma" = [0.5]' in text

    def test_floats_keep_exact_value(self):
        spec = RunSpec.from_dict({"method": {"sigma": 0.1 + 0.2}})
        again = RunSpec.from_dict(tomllib.loads(spec.to_toml()))
        assert again.method.sigma == spec.method.sigma  # bit-exact

    def test_header_commented(self):
        text = RunSpec.from_dict({}).to_toml(header="two\nlines")
        assert text.startswith("# two\n# lines")
