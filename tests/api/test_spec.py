"""Tests for the RunSpec tree: validation, overrides, sweep expansion."""

import pytest

from repro.api.spec import (
    DatasetSpec,
    MethodSpec,
    RunSpec,
    SpecError,
    apply_overrides,
    expand_sweep,
    parse_assignment,
    validate_path,
)


class TestDefaults:
    def test_empty_dict_is_the_default_train_run(self):
        spec = RunSpec.from_dict({})
        assert not spec.is_simulation
        assert spec.dataset == DatasetSpec()
        assert spec.method == MethodSpec()
        assert spec.method.name == "uldp-avg-w"
        assert spec.rounds is None

    def test_sim_mode_method_default_is_scenario_canonical(self):
        spec = RunSpec.from_dict({"sim": {"scenario": "ideal-sync"}})
        assert spec.is_simulation
        assert spec.dataset is None
        assert spec.method.name == "uldp-avg-w"
        assert spec.method.local_epochs == 1  # not the train-mode 2

    def test_explicit_method_table_uses_train_defaults(self):
        spec = RunSpec.from_dict(
            {"sim": {"scenario": "ideal-sync"}, "method": {"sigma": 2.0}}
        )
        assert spec.method.local_epochs == 2


class TestValidationErrorsNameThePath:
    def test_negative_sigma(self):
        with pytest.raises(SpecError, match="method") as exc:
            RunSpec.from_dict({"method": {"sigma": -1.0}})
        assert "sigma" in str(exc.value)

    def test_bad_enum(self):
        with pytest.raises(SpecError, match="dataset") as exc:
            RunSpec.from_dict({"dataset": {"distribution": "powerlaw"}})
        assert "distribution" in str(exc.value)

    def test_unknown_section_key_suggested(self):
        with pytest.raises(SpecError, match=r"method\.sigmaa"):
            RunSpec.from_dict({"method": {"sigmaa": 1.0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="methodd"):
            RunSpec.from_dict({"methodd": {}})

    def test_bad_delta(self):
        with pytest.raises(SpecError, match="privacy"):
            RunSpec.from_dict({"privacy": {"delta": 2.0}})

    def test_bad_compression_nested(self):
        with pytest.raises(SpecError, match="compression"):
            RunSpec.from_dict({"compression": {"sparsify": "topk", "fraction": 3.0}})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(SpecError, match=r"method\.sigma"):
            RunSpec.from_dict({"method": {"sigma": True}})

    def test_dataset_alongside_sim_rejected(self):
        with pytest.raises(SpecError, match="dataset"):
            RunSpec.from_dict(
                {"sim": {"scenario": "ideal-sync"}, "dataset": {"users": 5}}
            )

    def test_crypto_requires_secure_method(self):
        with pytest.raises(SpecError, match="crypto"):
            RunSpec.from_dict({"crypto": {"backend": "fast"}})

    def test_crypto_with_secure_method_accepted(self):
        spec = RunSpec.from_dict(
            {"method": {"name": "secure-uldp-avg"}, "crypto": {"backend": "masked"}}
        )
        assert spec.crypto.backend == "masked"

    def test_reference_backend_is_an_ordinary_unknown_value(self):
        """The seed implementation is a test oracle now, not a backend:
        naming it fails like any other value outside the enum."""
        from repro.api.spec import CRYPTO_BACKENDS
        from repro.protocol import secure_method

        assert CRYPTO_BACKENDS == secure_method.CRYPTO_BACKENDS == ("fast", "masked")
        with pytest.raises(SpecError, match=r"crypto.*backend must be one of"):
            RunSpec.from_dict(
                {"method": {"name": "secure-uldp-avg"},
                 "crypto": {"backend": "reference"}}
            )

    @pytest.mark.parametrize("crypto", [None, {"backend": "fast"}], ids=["default", "fast"])
    def test_paillier_alongside_sim_rejected(self, crypto):
        """The simulator hands every round a RoundParticipation, which the
        Paillier protocol refuses; say so at validation, not in round 0
        after DH + keygen set-up."""
        tree = {
            "sim": {"scenario": "ideal-sync", "scale": "smoke"},
            "method": {"name": "secure-uldp-avg"},
        }
        if crypto is not None:
            tree["crypto"] = crypto
        with pytest.raises(SpecError, match=r"crypto\.backend.*\"masked\""):
            RunSpec.from_dict(tree)
        masked = RunSpec.from_dict({**tree, "crypto": {"backend": "masked"}})
        assert masked.crypto.backend == "masked"

    def test_int_promoted_to_float(self):
        spec = RunSpec.from_dict({"method": {"sigma": 5}})
        assert spec.method.sigma == 5.0
        assert isinstance(spec.method.sigma, float)

    def test_integral_float_demoted_to_int(self):
        spec = RunSpec.from_dict({"rounds": 3.0, "dataset": {"users": 8.0}})
        assert spec.rounds == 3 and isinstance(spec.rounds, int)
        assert spec.dataset.users == 8 and isinstance(spec.dataset.users, int)

    def test_fractional_float_into_int_field_rejected(self):
        with pytest.raises(SpecError, match=r"dataset\.users: expected an integer"):
            RunSpec.from_dict({"dataset": {"users": 8.5}})
        with pytest.raises(SpecError, match="rounds: expected an integer"):
            RunSpec.from_dict({"rounds": 1.5})


class TestOverrides:
    def test_scalar_override(self):
        spec = RunSpec.from_dict(apply_overrides({}, {"method.sigma": 1.5}))
        assert spec.method.sigma == 1.5

    def test_override_creates_optional_section(self):
        tree = apply_overrides({}, {"sim.scenario": "silo-outage"})
        spec = RunSpec.from_dict(tree)
        assert spec.sim.scenario == "silo-outage"

    def test_unknown_path_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="did you mean"):
            apply_overrides({}, {"method.sigm": 1.0})

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="unknown config path"):
            apply_overrides({}, {"nosuch.field": 1.0})

    def test_bare_section_assignment_rejected(self):
        with pytest.raises(SpecError, match="section cannot be assigned"):
            validate_path("method")

    def test_sweep_axis_override(self):
        tree = apply_overrides({}, {"sweep.method.sigma": [0.5, 1.0]})
        spec = RunSpec.from_dict(tree)
        assert spec.sweep == {"method.sigma": [0.5, 1.0]}

    def test_sweep_axis_needs_list(self):
        with pytest.raises(SpecError, match="list"):
            apply_overrides({}, {"sweep.method.sigma": 1.0})

    def test_parse_assignment_types(self):
        assert parse_assignment("method.sigma=1.5") == ("method.sigma", 1.5)
        assert parse_assignment("method.name=uldp-avg") == ("method.name", "uldp-avg")
        assert parse_assignment("dataset.non_iid=true") == ("dataset.non_iid", True)
        assert parse_assignment("sweep.method.sigma=[1,2]") == (
            "sweep.method.sigma", [1, 2],
        )

    def test_parse_assignment_requires_equals(self):
        with pytest.raises(SpecError):
            parse_assignment("method.sigma")

    def test_with_overrides_revalidates(self):
        spec = RunSpec.from_dict({})
        with pytest.raises(SpecError, match="method"):
            spec.with_overrides({"method.sigma": -3.0})


class TestHash:
    def test_stable_across_key_order(self):
        a = RunSpec.from_dict({"seed": 1, "method": {"sigma": 2.0}})
        b = RunSpec.from_dict({"method": {"sigma": 2.0}, "seed": 1})
        assert a.hash() == b.hash()

    def test_sensitive_to_any_field(self):
        base = RunSpec.from_dict({})
        assert base.hash() != RunSpec.from_dict({"method": {"sigma": 4.9}}).hash()
        assert base.hash() != RunSpec.from_dict({"seed": 1}).hash()

    def test_hash_is_hex16(self):
        digest = RunSpec.from_dict({}).hash()
        assert len(digest) == 16
        int(digest, 16)


class TestSweepExpansion:
    def test_no_axes_is_identity(self):
        spec = RunSpec.from_dict({})
        points = expand_sweep(spec)
        assert len(points) == 1 and points[0].spec == spec

    def test_grid_is_cartesian(self):
        spec = RunSpec.from_dict({
            "sweep": {
                "method.sigma": [0.5, 1.0, 2.0],
                "dataset.users": [10, 20],
            }
        })
        points = expand_sweep(spec)
        assert len(points) == 6
        combos = {(p.spec.method.sigma, p.spec.dataset.users) for p in points}
        assert combos == {(s, u) for s in (0.5, 1.0, 2.0) for u in (10, 20)}

    def test_children_have_distinct_hashes_and_no_sweep(self):
        spec = RunSpec.from_dict({"sweep": {"method.sigma": [0.5, 1.0]}})
        points = expand_sweep(spec)
        hashes = {p.spec.hash() for p in points}
        assert len(hashes) == 2
        for p in points:
            assert not p.spec.sweep
            assert p.label in p.spec.name

    def test_whole_section_axis(self):
        spec = RunSpec.from_dict({
            "sweep": {"method": [{"name": "uldp-avg"}, {"name": "uldp-avg-w"}]}
        })
        points = expand_sweep(spec)
        assert [p.spec.method.name for p in points] == ["uldp-avg", "uldp-avg-w"]
        # Unset fields fall back to MethodSpec defaults, not the base.
        assert all(p.spec.method.sigma == 5.0 for p in points)

    def test_invalid_axis_path_rejected(self):
        with pytest.raises(SpecError, match="sweep"):
            RunSpec.from_dict({"sweep": {"method.sigmaa": [1.0]}})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            RunSpec.from_dict({"sweep": {"method.sigma": []}})

    def test_invalid_child_value_names_path(self):
        spec = RunSpec.from_dict({"sweep": {"method.sigma": [1.0, -2.0]}})
        with pytest.raises(SpecError, match="sigma"):
            expand_sweep(spec)


class TestEngineSection:
    def test_defaults(self):
        spec = RunSpec.from_dict({"engine": {}})
        assert spec.engine.workers == 0
        assert spec.engine.shard_size == 4096
        assert spec.engine.backend == "numpy"

    def test_absent_by_default(self):
        assert RunSpec.from_dict({}).engine is None

    def test_round_trip(self):
        spec = RunSpec.from_dict(
            {"engine": {"workers": 4, "shard_size": 256, "backend": "numpy"}}
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["engine"]["workers"] == 4

    def test_validation(self):
        with pytest.raises(SpecError, match="workers"):
            RunSpec.from_dict({"engine": {"workers": -1}})
        with pytest.raises(SpecError, match="shard_size"):
            RunSpec.from_dict({"engine": {"shard_size": 0}})
        with pytest.raises(SpecError, match="backend"):
            RunSpec.from_dict({"engine": {"backend": "jax"}})
        with pytest.raises(SpecError, match="boolean"):
            RunSpec.from_dict({"engine": {"workers": True}})

    def test_conflicts_with_sim(self):
        with pytest.raises(SpecError, match="engine.*\\[sim\\]"):
            RunSpec.from_dict({
                "sim": {"scenario": "silo-outage"},
                "engine": {"workers": 2},
            })

    def test_override_creates_section(self):
        tree = apply_overrides({}, {"engine.workers": 4})
        spec = RunSpec.from_dict(tree)
        assert spec.engine.workers == 4

    def test_parse_assignment(self):
        assert parse_assignment("engine.shard_size=256") == (
            "engine.shard_size", 256,
        )

    def test_engine_changes_hash(self):
        # [engine] names the execution plan, so unlike [obs] it is part
        # of the run's identity hash -- but never of its results (see
        # tests/core/test_engine_determinism.py).
        base = RunSpec.from_dict({})
        sharded = RunSpec.from_dict({"engine": {"workers": 2}})
        assert base.hash() != sharded.hash()
