"""The committed spec files are the experiments: they stay valid, and
loading one at a (tier, seed) gives the spec the hand-built trees gave."""

import glob
from pathlib import Path

import pytest

from repro.api.runner import validate_spec_names
from repro.api.spec import RunSpec, expand_sweep

SPEC_DIR = Path(__file__).resolve().parent.parent.parent / "examples" / "specs"


def spec_files():
    return sorted(glob.glob(str(SPEC_DIR / "*.toml")))


class TestCommittedSpecs:
    def test_directory_is_populated(self):
        names = {Path(p).stem for p in spec_files()}
        assert {"quickstart", "sigma_sweep", "bandwidth_sim"} <= names
        assert {f"fig{n:02d}" for n in range(4, 11)} | {"sim01"} <= names

    @pytest.mark.parametrize("path", spec_files(), ids=lambda p: Path(p).stem)
    def test_file_validates(self, path):
        spec = RunSpec.from_file(path)
        for point in expand_sweep(spec):
            validate_spec_names(point.spec)

    @pytest.mark.parametrize("path", spec_files(), ids=lambda p: Path(p).stem)
    def test_file_roundtrips(self, path):
        spec = RunSpec.from_file(path)
        assert RunSpec.from_dict(spec.to_dict()) == spec


#: ``spec_for_experiment(name, scale, seed).hash()`` as recorded at the last
#: commit whose registry still built each tree by hand (f5f969e, PR 19),
#: before the files became the source.  The loader is held to it.
PARENT_HASHES = {
    ("fig04", "smoke", 0): "613be240681aa8bd",
    ("fig04", "smoke", 1): "6fbe315ac72507ed",
    ("fig04", "small", 0): "b9fb913b467f88f6",
    ("fig04", "small", 1): "059a5fa5bf45f233",
    ("fig04", "paper", 0): "7edb04cae0d143d1",
    ("fig04", "paper", 1): "36dc1999a9a6e514",
    ("fig06", "smoke", 0): "d3e804c5f644b9bc",
    ("fig06", "smoke", 1): "f02be750ca61fe77",
    ("fig06", "small", 0): "d1f2634c03a78392",
    ("fig06", "small", 1): "e1c735f007494ca9",
    ("fig06", "paper", 0): "4347586bba649e6e",
    ("fig06", "paper", 1): "50e86e22e94e2ab2",
    ("fig08", "smoke", 0): "09014b3921a3c7a0",
    ("fig08", "smoke", 1): "022b1d36a9abc87b",
    ("fig08", "small", 0): "89dca7036d160a39",
    ("fig08", "small", 1): "663c700ebbd89852",
    ("fig08", "paper", 0): "5e5a543fc9790e05",
    ("fig08", "paper", 1): "d79304eafd3f067d",
    ("fig09", "smoke", 0): "b0c1b3f1b485e748",
    ("fig09", "smoke", 1): "30d4eb038f541323",
    ("fig09", "small", 0): "65619772c5936a71",
    ("fig09", "small", 1): "d8c3da545f9cc333",
    ("fig09", "paper", 0): "cad7e048577853bf",
    ("fig09", "paper", 1): "afdff5481bbb0357",
    ("sim01", "smoke", 0): "5e39639ab4db4561",
    ("sim01", "smoke", 1): "a3371e0252c0b40c",
    ("sim01", "small", 0): "5b7e7510c2d5962c",
    ("sim01", "small", 1): "2cf28a34c82c7694",
    ("sim01", "paper", 0): "d2e3866d3e5b5cad",
    ("sim01", "paper", 1): "1652d9733fba8e03",
}

#: The cells the inversion moved on purpose (CHANGES.md, PR 20): the old
#: fig09 tree forced ``dataset.users`` up to 100 at every tier; the one tier
#: rule caps users at the smoke tier's 20, as it does for every other file.
MOVED_HASHES = {
    ("fig09", "smoke", 0): "59c3611d5506531c",
    ("fig09", "smoke", 1): "851adc7a49d8c604",
}


class TestSweepAxisCanonicalisation:
    """An axis value is held as the field it assigns would hold it, so two
    spellings of one grid are one grid: same labels, same hashes."""

    @pytest.mark.parametrize(
        "spelled, canonical",
        [
            ({"method.sigma": [1]}, {"method.sigma": [1.0]}),
            ({"rounds": [2.0]}, {"rounds": [2]}),
            (
                {"method": [{"name": "uldp-avg", "sigma": 1}]},
                {"method": [{"name": "uldp-avg", "sigma": 1.0}]},
            ),
        ],
        ids=["section.field", "root-scalar", "whole-section"],
    )
    def test_spellings_of_one_grid_share_every_hash(self, spelled, canonical):
        a = RunSpec.from_dict({"sweep": spelled})
        b = RunSpec.from_dict({"sweep": canonical})
        assert a.sweep == b.sweep == canonical
        assert a.hash() == b.hash()
        assert [(p.label, p.spec.hash()) for p in expand_sweep(a)] == [
            (p.label, p.spec.hash()) for p in expand_sweep(b)
        ]

    def test_the_recorded_case(self):
        """`[1]` and `[1.0]` were `run[method.sigma=1]` / `458583457236b819`
        and `run[method.sigma=1.0]` / `5a534ebb9ba63f21`, both at sigma 1.0."""
        (point,) = expand_sweep(RunSpec.from_dict({"sweep": {"method.sigma": [1]}}))
        assert point.spec.name == "run[method.sigma=1.0]"
        assert point.spec.hash() == "5a534ebb9ba63f21"
        assert point.spec.method.sigma == 1.0

    def test_root_scalar_axis_expands(self):
        """`validate_path` always accepted it; expansion took it for a
        whole-section axis and refused the integers."""
        points = expand_sweep(RunSpec.from_dict({"sweep": {"rounds": [1, 2]}}))
        assert [p.spec.rounds for p in points] == [1, 2]

    @pytest.mark.parametrize(
        "axis, complaint",
        [
            ({"rounds": [1.5]}, "sweep.rounds: expected an integer"),
            ({"method.sigma": [True]}, "sweep.method.sigma: expected a number"),
            ({"method": [3]}, "sweep.method: whole-section axis values must be tables"),
        ],
    )
    def test_uncoercible_axis_value_names_its_axis(self, axis, complaint):
        from repro.api.spec import SpecError

        with pytest.raises(SpecError, match=complaint):
            RunSpec.from_dict({"sweep": axis})


class TestExperimentSpecSync:
    """A spec file at a (tier, seed) is the experiment the figure runs."""

    @pytest.mark.parametrize("name", ["fig04", "fig06", "fig08", "fig09", "sim01"])
    def test_hashes_match_parent_table(self, name):
        from repro.experiments import spec_for_experiment

        expected = {**PARENT_HASHES, **MOVED_HASHES}
        cells = {k: v for k, v in expected.items() if k[0] == name}
        assert len(cells) == 6  # 3 tiers x seeds {0, 1}
        assert {k: spec_for_experiment(*k).hash() for k in cells} == cells

    def test_small_seed0_is_the_file_itself(self):
        """What ``repro validate-config`` prints for a figure file is the
        hash ``repro figure`` runs at its defaults."""
        from repro.experiments import spec_for_experiment

        for name in ("fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "sim01"):
            on_disk = RunSpec.from_file(SPEC_DIR / f"{name}.toml")
            assert spec_for_experiment(name).hash() == on_disk.hash()

    def test_sim01_axis_lists_every_builtin_scenario(self):
        """The old tree called ``available_scenarios()`` when generating;
        a new builtin scenario fails here until the file lists it."""
        from repro.sim import available_scenarios

        spec = RunSpec.from_file(SPEC_DIR / "sim01.toml")
        assert spec.sweep["sim.scenario"] == available_scenarios()

    def test_every_spec_file_is_a_listed_experiment(self, capsys):
        from repro.cli import main
        from repro.experiments import describe_experiment

        assert main(["figure", "--list"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        stems = {Path(p).stem for p in spec_files()}
        assert stems <= listed
        for stem in stems:  # the file's first comment line, one line, no '#'
            headline = describe_experiment(stem)
            assert len(headline) > 10 and not headline.startswith("#")

    def test_hand_written_spec_runs_by_name(self, capsys):
        """A spec file with no registered code (`unknown experiment` at PR 19)."""
        from repro.cli import main

        assert main(["figure", "quickstart", "--scale", "smoke"]) == 0
        assert "ULDP-AVG-w" in capsys.readouterr().out

    def test_analytic_experiments_have_no_spec(self):
        from repro.experiments import spec_for_experiment

        with pytest.raises(ValueError, match="analytic"):
            spec_for_experiment("fig02")

    def test_unknown_experiment_suggested(self):
        from repro.api.registries import UnknownNameError
        from repro.experiments import spec_for_experiment

        with pytest.raises(UnknownNameError, match="did you mean"):
            spec_for_experiment("fig4")
