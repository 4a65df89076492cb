"""Command-line interface: ``python -m repro <subcommand>``.

A run is launched from one validated config tree (``docs/api.md``) and
nothing else:

- ``run``       -- execute one :class:`repro.api.RunSpec` from a TOML/JSON
                   config file, with dotted-path ``--set`` overrides;
                   ``--resume CKPT`` continues a checkpointed simulation
                   from its stored (hash-verified) spec.
- ``sweep``     -- expand a spec's ``[sweep]`` grid axes into child runs
                   (optionally across a process pool) and print one
                   aggregated comparison table.
- ``serve`` / ``silo`` -- the same spec as real processes over TCP
                   (``docs/networking.md``).
- ``validate-config`` -- parse + validate spec files (registry names,
                   enum/range checks, sweep expansion) without running.
- ``cost``      -- predict a spec's per-phase wall-clock / wire bytes /
                   ciphertext counts / memory from the closed-form cost
                   model (``docs/cost_model.md``), or invert it
                   (``--solve-for users``) for capacity questions.

Plus the analytic utilities and listings:

- ``epsilon``   -- query the accountant: eps for (sigma, steps, q, delta).
- ``calibrate`` -- invert the accountant: the sigma (or q) achieving a
                   target epsilon.
- ``datasets`` / ``methods`` / ``scenarios`` -- list the registries.
- ``figure``    -- run an experiment by name: any ``examples/specs/*.toml``
                   resized to a ``--scale`` tier and a ``--seed``, or an
                   analytic table (``--list`` shows both kinds).
- ``trace``     -- summarise a ``trace.jsonl`` written by an
                   ``[obs]``-enabled run (``trace summary <file>``).

Every typed failure is one ``error: ...`` line on stderr and exit code 2
(:func:`main` is the only place that decides this; the exceptions are
``validate-config``, which reports per file and exits 1, and ``silo``,
whose 0/1/2/3 are documented in ``docs/networking.md``).

Examples::

    python -m repro run --config examples/specs/quickstart.toml
    python -m repro run --config exp.toml --set method.sigma=1.0 \\
        --set sim.scenario=bandwidth-cap
    python -m repro run --set sim.scenario=silo-outage \\
        --set sim.checkpoint_dir=ckpt/
    python -m repro run --resume ckpt/
    python -m repro sweep --config examples/specs/sigma_sweep.toml
    python -m repro validate-config examples/specs/*.toml
    python -m repro epsilon --sigma 5.0 --steps 100000 --sample-rate 0.01
"""

from __future__ import annotations

import argparse
import sys

from repro.api import builtin as _builtin  # noqa: F401  (registry population)
from repro.api.registries import DATASETS, METHODS, UnknownNameError
from repro.api.spec import (
    SCALES,
    SECURE_METHOD,
    RunSpec,
    SpecError,
    apply_overrides,
    load_spec_tree,
    parse_assignment,
)


def _fail(exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _configure_logging(level_name: str) -> None:
    """Route stdlib logging to stderr at the requested level.

    Result lines (port banners, histories, tables) stay on stdout so
    scripts that parse them keep working at any log level.
    """
    import logging

    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        stream=sys.stderr,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


# -- shared result printing ---------------------------------------------------


def _print_train_result(history) -> None:
    from repro.report import comparison_table, format_bytes

    print()
    print(comparison_table([history]))
    # Every run records wire bytes (dense defaults without compression),
    # so the totals are always available.
    up_mean, down_mean = history.comm_summary()
    print(
        f"\nwire traffic: {format_bytes(history.total_uplink_bytes)} up / "
        f"{format_bytes(history.total_downlink_bytes)} down total "
        f"({format_bytes(up_mean)}/rd up, {format_bytes(down_mean)}/rd down)"
    )


def _save_histories(histories, output: str | None) -> None:
    if not output:
        return
    from repro.report import save_histories

    save_histories(histories, output)
    what = "history" if len(histories) == 1 else f"{len(histories)} histories"
    print(f"\n{what} saved to {output}")


def _print_sim_result(sim) -> None:
    from repro.report import comparison_table

    print(comparison_table([sim.history]))
    accountant = sim.method.accountant  # None: DEFAULT, ULDP-GROUP
    releases = accountant.releases if accountant is not None else []
    if releases:
        worst = max(releases, key=lambda r: r.sensitivity)
        print(
            f"\n{len(releases)} releases; worst-case realised sensitivity "
            f"{worst.sensitivity:.3f} C (noise scale {worst.noise_scale:.3f})"
        )


# -- subcommands --------------------------------------------------------------


def _spec_from_config_args(args) -> RunSpec:
    """Shared --config/--set resolution for every spec-taking command."""
    tree = load_spec_tree(args.config) if args.config else {}
    if args.set:
        assignments = dict(parse_assignment(item) for item in args.set)
        tree = apply_overrides(tree, assignments)
    return RunSpec.from_dict(tree)


def _runnable_spec(args) -> RunSpec:
    """The --config/--set spec with its registry names resolved."""
    from repro.api.runner import validate_spec_names

    spec = _spec_from_config_args(args)
    validate_spec_names(spec)
    return spec


def _resume_from_checkpoint(args):
    """``--resume CKPT`` for ``run`` and ``serve``: (spec, simulator).

    The checkpoint's stored spec is the run's only description (its hash
    keys the history, the handshake and the checkpoint itself), so
    ``--config``/``--set`` are refused rather than silently ignored, and
    a checkpoint without a verified spec does not resume
    (:func:`repro.sim.scenarios.resume_simulator`).  Both commands keep
    snapshotting into ``CKPT``.
    """
    from repro.sim.scenarios import resume_simulator

    if args.config or args.set:
        raise SpecError(
            "--resume rebuilds from the checkpoint's stored spec; drop "
            "--config/--set (overrides would describe a different run)"
        )
    sim, extra = resume_simulator(args.resume)
    print(f"resumed from {args.resume} at round {sim.rounds_completed}")
    return RunSpec.from_dict(extra["spec"]), sim


def cmd_run(args) -> int:
    from repro.api.runner import checkpoint_extra, obs_session, run

    if args.resume:
        from repro.sim.scenarios import run_simulator_with_checkpoints

        spec, sim = _resume_from_checkpoint(args)
        with obs_session(spec, checkpoint_dir=args.resume):
            run_simulator_with_checkpoints(
                sim, args.resume, spec.sim.checkpoint_every,
                extra=checkpoint_extra(spec),
            )
        history = sim.history
    else:
        spec = _runnable_spec(args)
        result = run(spec)
        sim, history = result.simulator, result.history
    print(f"{spec.name} (spec {history.spec_hash})")
    if sim is not None:
        _print_sim_result(sim)
    else:
        print(result.dataset.summary())
        _print_train_result(history)
    _save_histories([history], args.output)
    return 0


def cmd_serve(args) -> int:
    """Run a simulate-mode [net] spec as the federation server."""
    _configure_logging(args.log_level)
    from repro.net.server import FederationServer

    if args.resume:
        spec, sim = _resume_from_checkpoint(args)
        server = FederationServer(spec, sim=sim, checkpoint_dir=args.resume)
    else:
        spec = _runnable_spec(args)
        server = FederationServer(spec)
    port = server.bind()
    print(
        f"serving {spec.name} on {spec.net.host}:{port} "
        f"({server.sim.fed.n_silos} silos, {server.sim.config.rounds} "
        "rounds)",
        flush=True,
    )
    procs, spec_file = [], None
    try:
        if args.spawn_silos:
            import json
            import os
            import subprocess
            import tempfile

            # The silos build their replicas from the spec, so hand them the
            # resolved tree (uniform for the fresh and the resume case).
            with tempfile.NamedTemporaryFile(
                "w", suffix=".json", prefix="repro-net-", delete=False
            ) as tmp:
                spec_file = tmp.name
                json.dump(spec.to_dict(), tmp)
            for s in range(server.sim.fed.n_silos):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "silo",
                     "--config", spec_file, "--silo-id", str(s),
                     "--port", str(port), "--log-level", args.log_level]
                ))
        server.serve()
    finally:
        server.close()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if spec_file is not None:
            os.unlink(spec_file)
    _print_sim_result(server.sim)
    _save_histories([server.sim.history], args.output)
    return 0


def cmd_silo(args) -> int:
    """Join a federation server as one silo worker process.

    The heap is frozen once the client is built: here, not in
    :class:`SiloClient`, which tests build and run in-process."""
    import gc

    _configure_logging(args.log_level)
    from repro.net.silo_client import SiloClient

    client = SiloClient(_runnable_spec(args), args.silo_id, port=args.port)
    gc.freeze()  # the build lives until exit: no collection need walk it
    return client.run()


def cmd_trace(args) -> int:
    """Summarise a trace.jsonl written by an [obs]-enabled run."""
    from repro.obs.summary import load_trace, render_summary

    print(render_summary(load_trace(args.trace), slowest=args.slowest))
    return 0


def cmd_sweep(args) -> int:
    from repro.api.sweep import run_sweep

    spec = _spec_from_config_args(args)
    if not spec.sweep:
        raise SpecError(
            "the spec declares no [sweep] axes; add e.g. "
            '[sweep] "method.sigma" = [0.5, 1.0] (or use `repro run`)'
        )
    # run_sweep validates every grid point's registry names up front.
    sweep = run_sweep(
        spec,
        workers=args.workers,
        prune_cost_seconds=args.prune_cost_seconds,
        prune_cost_bytes=args.prune_cost_bytes,
    )
    print(f"{spec.name}: {len(sweep.results)} runs (base spec {spec.hash()})\n")
    if sweep.pruned:
        print(f"cost pruning skipped {len(sweep.pruned)} grid point(s):")
        for item in sweep.pruned:
            print(
                f"  {item.label}: predicted {item.metric} "
                f"{item.predicted:.4g} > budget {item.budget:.4g}"
            )
        print()
    print(sweep.table())
    _save_histories(sweep.histories, args.output)
    return 0


def cmd_cost(args) -> int:
    """Predict per-phase cost of a spec, or invert for a user capacity."""
    from repro.cost.calibrate import load_calibration
    from repro.cost.planner import predict, solve_max_users

    spec = _spec_from_config_args(args)
    calibration = load_calibration(args.calibration) if args.calibration else None
    if args.solve_for:
        answer = solve_max_users(
            spec,
            budget_seconds=args.budget_seconds,
            budget_uplink_bytes=args.budget_uplink_bytes,
            budget_memory_bytes=args.budget_memory_bytes,
            calibration=calibration,
        )
        print(f"{spec.name} (spec {spec.hash()})")
        print(answer.render())
    else:
        print(predict(spec, calibration=calibration).render())
    return 0


def cmd_validate_config(args) -> int:
    from repro.api.runner import build_method, validate_spec_names
    from repro.api.spec import expand_sweep

    failures = 0
    for path in args.files:
        try:
            spec = RunSpec.from_file(path)
            points = expand_sweep(spec)
            for point in points:
                validate_spec_names(point.spec)
        except (ValueError, UnknownNameError) as exc:  # per file, not fatal
            reason = str(exc).removeprefix(f"{path}: ")
            print(f"{path}: FAIL: {reason}", file=sys.stderr)
            failures += 1
            continue
        mode = "simulate" if spec.is_simulation else "train"
        grid = f", {len(points)}-point sweep" if spec.sweep else ""
        print(f"{path}: OK ({mode}{grid}, spec {spec.hash()})")
        if spec.method.name == SECURE_METHOD:
            print(f"{path}: {build_method(spec).security_summary()}")
    return 1 if failures else 0


def cmd_epsilon(args) -> int:
    from repro.accounting.accountant import PrivacyAccountant

    acct = PrivacyAccountant()
    acct.step(args.sigma, sample_rate=args.sample_rate, steps=args.steps)
    eps, alpha = acct.get_epsilon_and_alpha(args.delta)
    print(
        f"(sigma={args.sigma}, q={args.sample_rate}, steps={args.steps}) => "
        f"eps={eps:.4f} at delta={args.delta} (optimal alpha={alpha:g})"
    )
    if args.group_size > 1:
        g_eps = acct.get_group_epsilon(args.delta, args.group_size, route=args.route)
        print(
            f"group-privacy conversion (k={args.group_size}, {args.route} route) => "
            f"eps={g_eps:.4f}"
        )
    return 0


def cmd_calibrate(args) -> int:
    from repro.accounting.calibration import (
        calibrate_noise_multiplier,
        calibrate_sample_rate,
    )

    if args.solve_for == "sigma":
        sigma = calibrate_noise_multiplier(
            args.target_epsilon, args.delta, args.steps, sample_rate=args.sample_rate
        )
        print(
            f"target eps={args.target_epsilon} at delta={args.delta}, "
            f"steps={args.steps}, q={args.sample_rate} => sigma={sigma:.4f}"
        )
    else:
        q = calibrate_sample_rate(
            args.target_epsilon, args.delta, args.steps, noise_multiplier=args.sigma
        )
        print(
            f"target eps={args.target_epsilon} at delta={args.delta}, "
            f"steps={args.steps}, sigma={args.sigma} => q={q:.4f}"
        )
    return 0


def cmd_datasets(args) -> int:
    for name in DATASETS.names():
        print(f"{name:<14s} {DATASETS.describe(name)}")
    return 0


def cmd_methods(args) -> int:
    for name in METHODS.names():
        print(f"{name:<16s} {METHODS.describe(name)}")
    return 0


def cmd_scenarios(args) -> int:
    from repro.sim.scenarios import available_scenarios, describe_scenario

    for name in available_scenarios():
        print(f"{name:<22s} {describe_scenario(name)}")
    return 0


def cmd_figure(args) -> int:
    from repro.experiments import (
        available_experiments,
        describe_experiment,
        run_experiment,
        spec_for_experiment,
    )

    if args.list:
        for name in available_experiments():
            print(f"{name:<14s} {describe_experiment(name)}")
        return 0
    if not args.name:
        raise ValueError("specify an experiment name or --list")
    if args.output:
        # Only a spec-file experiment trains anything; asking an analytic
        # one for histories is refused (ValueError) before it computes.
        spec_for_experiment(args.name, scale=args.scale, seed=args.seed)
    result = run_experiment(args.name, scale=args.scale, seed=args.seed)
    print(f"{result.name}: {result.description}\n")
    print(result.table())
    _save_histories(result.histories, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Uldp-FL reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute one RunSpec config (TOML/JSON)"
    )
    run_p.add_argument("--config", type=str, default=None,
                       help="spec file; defaults apply when omitted")
    run_p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="dotted-path override, e.g. method.sigma=1.0")
    run_p.add_argument("--resume", type=str, default=None, metavar="CKPT",
                       help="continue a checkpointed [sim] run from its "
                       "stored spec (refuses --config/--set and a tampered "
                       "spec)")
    run_p.add_argument("--output", type=str, default=None,
                       help="write the history JSON here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="expand a spec's [sweep] grid and aggregate one table"
    )
    sweep_p.add_argument("--config", type=str, default=None)
    sweep_p.add_argument("--set", action="append", metavar="PATH=VALUE",
                         help="dotted-path override; sweep.<path>=[..] sets an axis")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="run grid points across a process pool")
    sweep_p.add_argument("--prune-cost-seconds", type=float, default=None,
                         help="skip grid points whose predicted whole-run "
                         "wall-clock exceeds this (cost model; logged)")
    sweep_p.add_argument("--prune-cost-bytes", type=float, default=None,
                         help="skip grid points whose predicted whole-run "
                         "uplink bytes exceed this (cost model; logged)")
    sweep_p.add_argument("--output", type=str, default=None,
                         help="write all child histories JSON here")
    sweep_p.set_defaults(func=cmd_sweep)

    cost_p = sub.add_parser(
        "cost",
        help="predict a spec's per-phase cost (seconds/bytes/ciphertexts/"
        "memory) or solve capacity questions",
    )
    cost_p.add_argument("--config", type=str, default=None,
                        help="spec file; defaults apply when omitted")
    cost_p.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="dotted-path override, e.g. dataset.n_users=1e6")
    cost_p.add_argument("--calibration", type=str, default=None,
                        help="calibration.json to price with (default: the "
                        "committed fit, or the spec's [cost].calibration)")
    cost_p.add_argument("--solve-for", choices=["users"], default=None,
                        help="invert the model: max users within the budgets")
    cost_p.add_argument("--budget-seconds", type=float, default=None,
                        help="per-round wall-clock budget for --solve-for")
    cost_p.add_argument("--budget-uplink-bytes", type=float, default=None,
                        help="per-round uplink byte budget for --solve-for")
    cost_p.add_argument("--budget-memory-bytes", type=float, default=None,
                        help="whole-run resident memory budget for --solve-for")
    cost_p.set_defaults(func=cmd_cost)

    val = sub.add_parser(
        "validate-config", help="validate spec files without running them"
    )
    val.add_argument("files", nargs="+", help="spec files (.toml/.json)")
    val.set_defaults(func=cmd_validate_config)

    eps = sub.add_parser("epsilon", help="accountant query")
    eps.add_argument("--sigma", type=float, required=True)
    eps.add_argument("--steps", type=int, required=True)
    eps.add_argument("--sample-rate", type=float, default=1.0)
    eps.add_argument("--delta", type=float, default=1e-5)
    eps.add_argument("--group-size", type=int, default=1)
    eps.add_argument("--route", choices=["rdp", "dp"], default="rdp")
    eps.set_defaults(func=cmd_epsilon)

    cal = sub.add_parser("calibrate", help="solve for sigma or q")
    cal.add_argument("--target-epsilon", type=float, required=True)
    cal.add_argument("--delta", type=float, default=1e-5)
    cal.add_argument("--steps", type=int, required=True)
    cal.add_argument("--solve-for", choices=["sigma", "q"], default="sigma")
    cal.add_argument("--sigma", type=float, default=5.0,
                     help="fixed sigma when solving for q")
    cal.add_argument("--sample-rate", type=float, default=1.0,
                     help="fixed q when solving for sigma")
    cal.set_defaults(func=cmd_calibrate)

    ds = sub.add_parser("datasets", help="list registered benchmark federations")
    ds.set_defaults(func=cmd_datasets)

    methods = sub.add_parser("methods", help="list registered FL methods")
    methods.set_defaults(func=cmd_methods)

    scenarios = sub.add_parser("scenarios", help="list registered sim scenarios")
    scenarios.set_defaults(func=cmd_scenarios)

    serve = sub.add_parser(
        "serve",
        help="run a [net] spec as the federation server (silos connect "
        "as separate `repro silo` processes)",
    )
    serve.add_argument("--config", type=str, default=None,
                       help="simulate-mode spec with a [net] section")
    serve.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="dotted-path override, e.g. net.port=7000")
    serve.add_argument("--resume", type=str, default=None, metavar="CKPT",
                       help="resume a killed run from its checkpoint "
                       "directory (silos reconnect; refuses a tampered "
                       "spec)")
    serve.add_argument("--spawn-silos", action="store_true",
                       help="launch the scenario's silo processes locally "
                       "(single-machine runs and smoke tests)")
    serve.add_argument("--output", type=str, default=None,
                       help="write the history JSON here")
    serve.add_argument("--log-level", type=str, default="warning",
                       choices=["debug", "info", "warning", "error"],
                       help="stdlib logging threshold (stderr); spawned "
                       "silos inherit it")
    serve.set_defaults(func=cmd_serve)

    silo = sub.add_parser(
        "silo", help="join a federation server as one silo worker"
    )
    silo.add_argument("--config", type=str, default=None,
                      help="the server's spec file (hashes must match)")
    silo.add_argument("--set", action="append", metavar="PATH=VALUE",
                      help="dotted-path override (must mirror the server's)")
    silo.add_argument("--silo-id", type=int, required=True,
                      help="this worker's silo index (0-based)")
    silo.add_argument("--port", type=int, default=None,
                      help="server port (overrides net.port; required when "
                      "the spec uses port 0)")
    silo.add_argument("--log-level", type=str, default="warning",
                      choices=["debug", "info", "warning", "error"],
                      help="stdlib logging threshold (stderr)")
    silo.set_defaults(func=cmd_silo)

    trace = sub.add_parser(
        "trace", help="inspect a trace.jsonl written by an [obs]-enabled run"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tsum = trace_sub.add_parser(
        "summary",
        help="per-round/per-phase/per-silo tables, slowest spans, faults",
    )
    tsum.add_argument("trace", help="path to the trace.jsonl file")
    tsum.add_argument("--slowest", type=int, default=5,
                      help="how many slowest spans to list")
    tsum.set_defaults(func=cmd_trace)

    fig = sub.add_parser(
        "figure",
        help="run an experiment: a spec file under examples/specs/ by name "
        "(or an analytic table) at a scale tier and seed",
    )
    fig.add_argument("name", nargs="?", default=None,
                     help="experiment name (see --list)")
    fig.add_argument("--list", action="store_true", help="list experiments")
    fig.add_argument("--scale", choices=SCALES, default="small")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--output", type=str, default=None,
                     help="write the sweep's histories JSON here (refused "
                     "for the analytic experiments, which train nothing)")
    fig.set_defaults(func=cmd_figure)

    return parser


def _typed_errors() -> tuple:
    """Every failure the runtime raises on purpose (``except`` evaluates
    this only once something was raised, so a clean run never imports
    ``repro.core`` / ``repro.net`` just to name their error types)."""
    from repro.core.weighting import QuorumError
    from repro.net.transport import TransportError

    return (OSError, ValueError, NotImplementedError, UnknownNameError,
            QuorumError, TransportError)


def main(argv: list[str] | None = None) -> int:
    """Parse, dispatch, and be the CLI's one error boundary (exit 2)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _typed_errors() as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
