"""The single entrypoint: ``repro.run(spec) -> RunResult``.

Resolves a validated :class:`repro.api.spec.RunSpec` against the
registries and executes it:

- **train mode** (no ``[sim]`` section): build the dataset, method, and
  (optionally) model through the registries, run a
  :class:`repro.core.Trainer`, and return its history.
- **simulate mode** (``[sim]`` present): build the named scenario with the
  spec's method and privacy parameters, run it (checkpointing when
  ``sim.checkpoint_dir`` is set), and return the simulator's history.

Either way the history is stamped with the spec snapshot and its
canonical :func:`repro.api.spec.spec_hash`, and simulation checkpoints
carry the same pair so ``--resume`` can refuse a tampered or mismatched
spec (:func:`verify_checkpoint_spec`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import builtin  # noqa: F401  (populates the registries)
from repro.api.registries import DATASETS, METHODS, MODELS
from repro.api.spec import RunSpec, SpecError

#: Seed-stream tag separating registry-built model inits from the
#: trainer's stream ("auto" models keep consuming the trainer RNG).
_MODEL_STREAM = 0x30DE1


@dataclass
class RunResult:
    """Outcome of one :func:`run` call."""

    spec: RunSpec
    spec_hash: str
    history: object  # repro.core.trainer.TrainingHistory
    dataset: object | None = None  # repro.data.FederatedDataset
    simulator: object | None = None  # repro.sim.FederationSimulator (sim mode)

    def table(self) -> str:
        """One-row comparison table of the run's history."""
        from repro.report import comparison_table

        return comparison_table([self.history])

    def summary(self) -> str:
        """One-line summary (method, final metric, epsilon, spec hash)."""
        return f"{self.history.summary()} spec={self.spec_hash}"


def validate_spec_names(spec: RunSpec) -> None:
    """Resolve every registry name the spec references, and check that
    what it names composes (without running).

    Raises :class:`repro.api.registries.UnknownNameError` -- listing valid
    names plus a nearest-match suggestion -- for an unknown method,
    dataset, model, or scenario, and :class:`SpecError` for a combination
    the method does not declare (:func:`_refuse_undeclared`).  ``repro
    validate-config`` calls this on every spec file and sweep point;
    ``run``, ``sweep``, ``serve`` and ``silo`` before they build anything.
    """
    METHODS.entry(spec.method.name)
    if spec.model.name != "auto":
        MODELS.entry(spec.model.name)
    if spec.is_simulation:
        import repro.sim.scenarios  # noqa: F401  (registers the builtins)
        from repro.api.registries import SCENARIOS

        SCENARIOS.entry(spec.sim.scenario)
    else:
        DATASETS.entry(spec.dataset.name)
    _refuse_undeclared(spec)


#: What every refusal below can suggest: it declares every capability.
_WORKS = 'method.name = "uldp-avg-w"'


def _refuse_undeclared(spec: RunSpec) -> None:
    """Refuse, before anything is built, what the run's constructors would
    refuse: a capability asked of a method that does not declare it.

    Decided from the method's contract (:class:`repro.core.FLMethod`:
    ``has_silo_step``, ``check_compression``) and the scenario's recipe.
    ``FederationSimulator`` and ``FLMethod.prepare`` keep their guards for
    callers that hand them objects; for a spec this is the one refusal
    (docs/api.md's capability table is its rendering).
    """
    method = build_method(spec)
    name = f"method.name={spec.method.name!r}"
    compression, bundler, buffered = spec.compression, "[compression]", False
    if spec.is_simulation:
        from repro.sim.policies import BufferedAsyncPolicy
        from repro.sim.scenarios import scenario_recipe

        sim = spec.sim
        scenario = f"sim.scenario={sim.scenario!r}"
        sizes, recipe = scenario_recipe(sim.scenario, sim.scale, spec.rounds)
        compression, bundler = recipe.get("compression"), f"{scenario}'s recipe"
        buffered = isinstance(recipe.get("policy"), BufferedAsyncPolicy)
        if buffered and spec.net is not None:
            raise SpecError(
                f"net: buffered-async {scenario} runs in-process only, "
                f"whatever the method ({name}): the networked runtime drives "
                "(semi-)synchronous rounds; drop [net] or pick another scenario"
            )
        if spec.net is not None and spec.net.min_quorum > sizes["n_silos"]:
            raise SpecError(
                f"net.min_quorum={spec.net.min_quorum} exceeds the "
                f"{sizes['n_silos']} silos of {scenario} at sim.scale={sim.scale!r}"
            )
    if (buffered or spec.net is not None) and not method.has_silo_step:
        driver = f"sim: buffered-async {scenario}" if buffered else "net: `repro serve`"
        raise SpecError(
            f"{driver} drives the per-silo step, which {name} does not declare "
            f"(has_silo_step); use a ULDP-AVG/SGD-family method, e.g. {_WORKS}"
        )
    if buffered and method.user_sample_rate:
        raise SpecError(
            f"method.sample_rate: buffered-async {scenario} has no round in "
            f"which the server could draw {name}'s user sample; drop it"
        )
    try:
        method.check_compression(compression)
    except (ValueError, NotImplementedError) as exc:
        raise SpecError(f"{name} cannot apply {bundler}: {exc} (e.g. {_WORKS})") from exc


def build_dataset(spec: RunSpec):
    """The spec's federation (train mode), via the dataset registry."""
    if spec.dataset is None:
        raise SpecError("spec has no dataset section (simulation mode)")
    seed = spec.dataset.seed if spec.dataset.seed is not None else spec.seed
    return DATASETS.get(spec.dataset.name)(spec.dataset, seed)


def build_method(spec: RunSpec):
    """The spec's FL method, via the method registry."""
    return METHODS.get(spec.method.name)(spec.method, spec.crypto)


def build_trainer(spec: RunSpec, fed=None):
    """A ready-to-run :class:`repro.core.Trainer` for a train-mode spec.

    The construction order and seeds (dataset from
    ``dataset.seed``/``seed``, trainer RNG from ``seed``) are what a
    direct ``Trainer(...)`` call uses, which is what keeps the spec path
    bit-identical to it (``tests/api/test_runner_oracle.py``).
    """
    from repro.core.trainer import Trainer

    if spec.is_simulation:
        raise SpecError("spec has a [sim] section; use build_simulator()")
    if fed is None:
        fed = build_dataset(spec)
    method = build_method(spec)
    model = None
    if spec.model.name != "auto":
        build = MODELS.get(spec.model.name)
        model = build(np.random.default_rng([_MODEL_STREAM, spec.seed]), fed)
    rounds = spec.rounds if spec.rounds is not None else 5
    engine = None
    if spec.engine is not None:
        from repro.core.engine import EngineConfig

        engine = EngineConfig(
            workers=spec.engine.workers,
            shard_size=spec.engine.shard_size,
            backend=spec.engine.backend,
        )
    return Trainer(
        fed,
        method,
        rounds=rounds,
        model=model,
        delta=spec.privacy.delta,
        seed=spec.seed,
        eval_every=spec.eval_every,
        compression=spec.compression,
        engine=engine,
    )


def build_simulator(spec: RunSpec):
    """A ready-to-run simulator for a simulate-mode spec (not yet run).

    The construction is deterministic in the spec: the scenario's
    federation and model template bound to the spec's method
    (:func:`repro.sim.scenarios.bind_scenario`), then the
    :class:`repro.sim.scheduler.SimConfig` of the scenario's recipe, then
    the :class:`repro.sim.scheduler.FederationSimulator`.  ``run``, a
    ``--resume`` rebuild, ``serve`` and a silo's replica all build
    through here, so the history is stamped with the spec here, once
    (``load_state`` leaves the stamp alone).
    """
    from repro.sim.scenarios import bind_scenario, scenario_recipe
    from repro.sim.scheduler import FederationSimulator, SimConfig

    if not spec.is_simulation:
        raise SpecError("spec has no [sim] section; use build_trainer()")
    name, scale = spec.sim.scenario, spec.sim.scale
    method = build_method(spec)
    sizes, overrides = scenario_recipe(name, scale, spec.rounds)
    fed = bind_scenario(name, scale, spec.seed, spec.rounds, method)
    config = SimConfig(
        rounds=sizes["rounds"], seed=spec.seed + 1, delta=spec.privacy.delta,
        eval_every=spec.eval_every, **overrides,
    )
    sim = FederationSimulator(
        fed, method, config, model=method.model, rng=method.rng)
    _stamp(sim.history, spec)
    return sim


def _stamp(history, spec: RunSpec) -> str:
    """Attach the spec snapshot + canonical hash to a history; returns hash."""
    digest = spec.hash()
    history.spec = spec.to_dict()
    history.spec_hash = digest
    return digest


def checkpoint_extra(spec: RunSpec) -> dict:
    """The checkpoint ``extra`` payload for a simulate-mode spec: the
    spec snapshot and its hash, all a resume rebuilds from."""
    return {"spec": spec.to_dict(), "spec_hash": spec.hash()}


def verify_checkpoint_spec(extra: dict | None) -> RunSpec:
    """The spec a checkpoint's ``extra`` payload describes, verified.

    Raises :class:`SpecError` when the payload carries no spec snapshot
    (nothing to rebuild the run from, nothing to check it against) or
    the snapshot no longer hashes to the recorded value -- i.e. the
    checkpoint was tampered with or written by an incompatible schema.
    """
    if not extra or "spec" not in extra:
        raise SpecError(
            "checkpoint carries no spec snapshot; only checkpoints saved "
            "with checkpoint_extra(spec) (every `repro run` / `repro "
            "serve` checkpoint) can be resumed"
        )
    spec = RunSpec.from_dict(extra["spec"])
    recorded = extra.get("spec_hash")
    actual = spec.hash()
    if recorded != actual:
        raise SpecError(
            f"checkpoint spec hash mismatch: recorded {recorded!r} but the "
            f"stored snapshot hashes to {actual!r}; refusing to resume a "
            "run whose configuration was modified"
        )
    return spec


def resolve_trace_path(spec: RunSpec, checkpoint_dir=None) -> Path:
    """Where this spec's ``trace.jsonl`` goes: the explicit
    ``obs.trace_path`` if set, else next to checkpoints -- in
    ``checkpoint_dir`` when given (the directory a run resumed from),
    else the spec's ``sim.checkpoint_dir`` -- else the working
    directory."""
    if spec.obs is not None and spec.obs.trace_path:
        return Path(spec.obs.trace_path)
    if checkpoint_dir is None and spec.sim is not None:
        checkpoint_dir = spec.sim.checkpoint_dir
    if checkpoint_dir:
        return Path(checkpoint_dir) / "trace.jsonl"
    return Path("trace.jsonl")


@contextlib.contextmanager
def obs_session(spec: RunSpec, mode: str | None = None, checkpoint_dir=None):
    """Install the spec's observability for the duration of one run.

    With ``[obs]`` absent or disabled this yields immediately and
    changes nothing (the process keeps the no-op recorder).  Enabled, it
    builds a :class:`repro.obs.JsonlTraceRecorder` at
    :func:`resolve_trace_path` (``checkpoint_dir``: the directory a
    resumed run snapshots into), installs it process-wide, opens the root
    ``run`` span (name, spec hash, mode), and -- when
    ``obs.metrics_port`` is set -- serves the recorder's fold as
    ``GET /metrics`` on that side port.  Everything is torn down
    (recorder restored + flushed, httpd stopped) on exit, error or not.
    """
    if spec.obs is None or not spec.obs.enabled:
        yield None
        return
    from repro.obs import JsonlTraceRecorder, use_recorder
    from repro.obs.httpd import start_metrics_server

    recorder = JsonlTraceRecorder(
        resolve_trace_path(spec, checkpoint_dir),
        sample_rate=spec.obs.sample_rate,
        run_id=spec.name,
    )
    metrics_server = None
    if spec.obs.metrics_port is not None:
        metrics_server = start_metrics_server(spec.obs.metrics_port, recorder)
    try:
        with use_recorder(recorder):
            with recorder.span(
                "run", kind="run", spec_name=spec.name,
                spec_hash=spec.hash(),
                mode=mode or ("simulate" if spec.is_simulation else "train"),
            ):
                yield recorder
    finally:
        if metrics_server is not None:
            metrics_server.close()
        recorder.close()


def run(spec: RunSpec, *, dataset=None) -> RunResult:
    """Execute one spec end to end; the single programmatic entrypoint.

    ``dataset`` optionally supplies an already-built federation for a
    train-mode spec whose ``dataset`` section (and resolved seed) it
    matches -- the sweep runner uses this to build each distinct
    federation once per grid instead of once per point.  The caller is
    responsible for the match; when in doubt, omit it.
    """
    if spec.sweep:
        raise SpecError(
            "spec declares sweep axes; use repro.api.run_sweep() "
            "(or the `repro sweep` command) to expand the grid"
        )
    with obs_session(spec):
        if spec.is_simulation:
            return _run_simulation(spec)
        return _run_training(spec, fed=dataset)


def _run_training(spec: RunSpec, fed=None) -> RunResult:
    trainer = build_trainer(spec, fed=fed)
    digest = _stamp(trainer.history, spec)
    history = trainer.run()
    return RunResult(
        spec=spec, spec_hash=digest, history=history, dataset=trainer.fed
    )


def _run_simulation(spec: RunSpec) -> RunResult:
    from repro.sim.scenarios import run_simulator_with_checkpoints

    sim = build_simulator(spec)
    run_simulator_with_checkpoints(
        sim,
        spec.sim.checkpoint_dir,
        spec.sim.checkpoint_every,
        extra=checkpoint_extra(spec),
    )
    return RunResult(
        spec=spec, spec_hash=sim.history.spec_hash, history=sim.history,
        dataset=sim.fed, simulator=sim,
    )
