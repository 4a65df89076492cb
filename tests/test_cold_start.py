"""What a cold process imports: never SciPy or sympy, and a silo only what it runs.

The sub-sampled Gaussian accountant (Lemma 4) runs on NumPy alone, so no
process loads SciPy (~0.25 s and ~20 MB each, server and silos alike) --
plain or sub-sampled, built or run -- and a host without SciPy runs both.
The cost model is plain Python over the runtime's byte formulas, so
``repro cost`` neither loads sympy nor needs it installed.
The packages resolve their public names on first access (PEP 562), so a
``repro silo`` imports no scheduler, trainer, accountant, compressor or
other method: every one of them is compiled from source in a process
that never writes bytecode.  Every case runs in a fresh interpreter,
since ``sys.modules`` is process-wide.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import importlib

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])

_PLAIN_TRAIN = """
from repro.api.runner import build_trainer
from repro.api.spec import RunSpec
trainer = build_trainer(RunSpec.from_dict({"rounds": 1, "dataset": {"users": 40}}))
trainer.step()
"""

_NET_SIM = f"""
from repro.api.runner import build_simulator
from repro.api.spec import RunSpec
spec = RunSpec.from_file({str(ROOT / "examples/specs/net_sim.toml")!r})
build_simulator(spec.with_overrides({{"net.faults": {{}}, "sim.checkpoint_dir": None}}))
"""

_EPSILON_Q1 = """
from repro.cli import main
assert main(["epsilon", "--sigma", "5", "--steps", "10", "--sample-rate", "1"]) == 0
"""

_SAMPLED_ROUND = """
import math
from repro.api.runner import build_trainer
from repro.api.spec import RunSpec
trainer = build_trainer(RunSpec.from_dict({
    "rounds": 1, "dataset": {"users": 40},
    "method": {"name": "uldp-avg-w", "sample_rate": 0.5},
}))
trainer.step()
assert math.isfinite(trainer.method.epsilon(1e-5))  # the sub-sampled curve ran
"""


def _python(code: str, *args: str, cwd: Path | None = None):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _scipy_loaded_after(code: str) -> bool:
    out = _python(code + "\nimport sys\nprint('scipy' in sys.modules)\n")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import repro.accounting",
        "import repro.api.runner",
        _PLAIN_TRAIN,
        _NET_SIM,
        _EPSILON_Q1,
        _SAMPLED_ROUND,
    ],
    ids=["import-accounting", "import-runner", "plain-train-round",
         "net-sim-build", "epsilon-q1", "sampled-train-round"],
)
def test_plain_process_never_loads_scipy(code):
    assert not _scipy_loaded_after(code)


# -- a host without SciPy -----------------------------------------------------

_NO_SCIPY_CLI = """
import sys
sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""

_RUN = ["run", "--set", "rounds=1", "--set", "dataset.users=40",
        "--set", "method.name=uldp-avg-w"]


def test_plain_spec_runs_without_scipy(tmp_path):
    out = _python(_NO_SCIPY_CLI, *_RUN, cwd=tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        _RUN + ["--set", "method.sample_rate=0.5"],
        ["epsilon", "--sigma", "5", "--steps", "10", "--sample-rate", "0.5"],
        ["calibrate", "--target-epsilon", "1", "--steps", "10", "--sample-rate", "0.5"],
    ],
    ids=["sampled-spec", "epsilon-q<1", "calibrate-q<1"],
)
def test_sampled_work_without_scipy_exits_0(tmp_path, argv):
    out = _python(_NO_SCIPY_CLI, *argv, cwd=tmp_path)
    assert out.returncode == 0, out.stderr


# -- the cost model without sympy ---------------------------------------------

_COST_FIG05 = f"""
import sys
from repro.api.spec import RunSpec
from repro.cost.planner import predict, solve_max_users
spec = RunSpec.from_file({str(ROOT / "examples/specs/fig05.toml")!r})
predict(spec)
solve_max_users(spec, budget_seconds=30.0, budget_memory_bytes=2e8)
print('sympy' in sys.modules)
"""


def test_cost_model_never_loads_sympy():
    out = _python(_COST_FIG05)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


_NO_SYMPY_CLI = """
import sys
sys.modules["sympy"] = None  # every `import sympy...` now raises ImportError
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_repro_cost_runs_without_sympy(tmp_path):
    out = _python(_NO_SYMPY_CLI, "cost", "--config", str(ROOT / "examples/specs/fig05.toml"),
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert "family=cnn" in out.stdout


# -- what a silo imports ------------------------------------------------------

_SILO_BUILD = f"""
import sys
from repro.api.spec import RunSpec
from repro.net.silo_client import SiloClient
SiloClient(RunSpec.from_file({str(ROOT / "examples/specs/net_sim.toml")!r}), 0, port=1)
print(" ".join(m for m in sys.modules if m.split(".")[0] == "repro"))
"""

#: Modules only the server (or another method) runs.
_NOT_IN_A_SILO = (
    "repro.sim.scheduler", "repro.sim.checkpoint", "repro.core.trainer",
    "repro.compress.pipeline", "repro.core.methods.uldp_group",
    "repro.core.methods.uldp_naive", "repro.core.methods.fedavg",
    "repro.nn.dpsgd",
)


def test_a_silo_imports_only_what_a_silo_runs():
    out = _python(_SILO_BUILD)
    assert out.returncode == 0, out.stderr
    modules = set(out.stdout.split())
    assert len(modules) <= 40, sorted(modules)
    assert not modules & set(_NOT_IN_A_SILO)
    assert not {m for m in modules if m.startswith("repro.accounting")}


_LAZY_PACKAGES = ("repro", "repro.api", "repro.core", "repro.core.methods",
                  "repro.nn", "repro.sim", "repro.accounting", "repro.compress",
                  "repro.net")


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_lazy_package_resolves_every_public_name(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in dir(module)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_importing_a_package_imports_none_of_its_submodules(package):
    out = _python(f"import sys, {package}\n"
                  f"print(sum(m.startswith('{package}.') for m in sys.modules))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]
