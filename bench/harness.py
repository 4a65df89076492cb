"""Building and stepping one run: shared by the measured run and by the
reference runs the output checks make.

``build`` is everything a user's process does before the first round;
:class:`Stepper` is the harness's own stepping loop around the program's
public round call (``Trainer.step`` / ``FederationSimulator.step``), from
which every round period is read.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

import host
import probes
import repro.api.runner as runner
from repro.api.spec import RunSpec

now = time.perf_counter


def build(job: dict, tree: dict, timings: dict | None = None) -> SimpleNamespace:
    """Everything up to (not including) the first round, from a spec tree."""
    timings = timings if timings is not None else {}
    start = now()
    spec = RunSpec.from_dict(tree)
    spec.hash()
    timings["api.spec_build_s"] = now() - start
    ctx = SimpleNamespace(job=job, spec=spec, sim=None, server=None)
    if job["kind"] == "train":
        start = now()
        ctx.fed = runner.build_dataset(spec)
        timings["data.build_dataset_s"] = now() - start
        ctx.trainer = runner.build_trainer(spec, fed=ctx.fed)
    else:
        ctx.sim = runner.build_simulator(spec)
        ctx.trainer, ctx.fed = ctx.sim.trainer, ctx.sim.fed
    ctx.method, ctx.model = ctx.trainer.method, ctx.trainer.model
    # Count the run's (silo, user) local trainings where every engine
    # path fetches a pair's records: once per pair per round.
    ctx.pairs = 0
    for silo in ctx.fed.silos:
        def counted(user, _inner=silo.records_of_user):
            ctx.pairs += 1
            return _inner(user)
        silo.records_of_user = counted
    return ctx


class Stepper:
    """Times round periods around the real round call, in plain wall-clock.

    A period runs from the start of round t to the start of round t+1
    (the last one to the end of the run), minus the time the harness
    itself spent in between: the host speed probe before every round
    (``host.SpeedProbe``, ~3.5 ms) and, in the traced pass, the layer
    probes.
    """

    def __init__(self, ctx, *, tracer=None, keep_at=()):
        self.ctx = ctx
        self.tracer = tracer
        #: Set to a callable to have it run once, as the last act of set-up.
        self.before_first_round = None
        self.keep_at = set(keep_at)
        self.kept: dict[int, np.ndarray] = {}
        self.marks: list[float] = []
        self.pauses: list[float] = []
        self.paused = 0.0
        self.speed_probe = host.SpeedProbe()
        self.probe_seconds: list[float] = []
        self.first_round_wall: float | None = None
        self.end: float | None = None
        self.cpu_first: tuple[int, int] | None = None
        self.cpu_end: tuple[int, int] | None = None

    def round(self, call):
        ctx = self.ctx
        probe = None
        if self.tracer is not None:
            pause = now()
            probe = probes.before_round(self.tracer, ctx, ctx.trainer.round_index)
            self.paused += now() - pause
        if self.first_round_wall is None:
            if self.before_first_round is not None:
                self.before_first_round()
            # Set-up ends here, before the harness's own probes.
            self.first_round_wall = time.time()
            self.cpu_first = host.cpu_times()
        pause = now()
        for _ in range(1 if self.marks else host.FIRST_PROBES):
            self.probe_seconds.append(self.speed_probe.sample())
        self.paused += now() - pause
        self.marks.append(now())
        self.pauses.append(self.paused)
        out = call() if probe is None else probe.run(call)
        if ctx.trainer.round_index in self.keep_at:
            self.kept[ctx.trainer.round_index] = ctx.trainer.params.copy()
        return out

    def finish(self) -> None:
        self.end = now()
        self.cpu_end = host.cpu_times()

    @property
    def periods(self) -> list[float]:
        edges = [*self.marks, self.end]
        paused = [*self.pauses, self.paused]
        return [
            (edges[i + 1] - edges[i]) - (paused[i + 1] - paused[i])
            for i in range(len(self.marks))
        ]

    @property
    def run_wall_s(self) -> float:
        return (self.end - self.marks[0]) - (self.paused - self.pauses[0])

    @property
    def steal_share(self) -> float:
        """Hypervisor steal over the run (see :func:`host.steal_share`)."""
        return host.steal_share(self.cpu_first, self.cpu_end)

    @property
    def speed_index(self) -> float:
        return host.speed_index(self.probe_seconds)

    def undisturbed(self, seconds: float) -> float:
        """A duration of this run corrected by this run's own host
        readings: for comparing two runs of one child that the host may
        have treated differently (the parent corrects what is reported)."""
        return host.undisturbed(seconds, self.steal_share, self.speed_index)


def close_workers(method) -> None:
    """Release every worker pool the method started (the sharded
    engine's, and Protocol 1's own)."""
    method.close()
    protocol = getattr(method, "protocol", None)
    if protocol is not None:
        protocol.close()


def run_in_process(ctx, stepper: Stepper, limit: int, checkpoint_dir=None) -> None:
    """Step ``ctx`` for ``limit`` rounds without a network (train or sim)."""
    if ctx.sim is None:
        trainer = ctx.trainer
        try:
            while not trainer.done and trainer.round_index < limit:
                stepper.round(trainer.step)
        finally:
            close_workers(ctx.method)
    else:
        hook_simulator(ctx, stepper)
        try:
            if checkpoint_dir is None:
                ctx.sim.run(stop_after=limit)
            else:
                from repro.sim.scenarios import run_simulator_with_checkpoints

                # repro.run()'s simulate path, taken apart so the harness
                # can see round starts.
                run_simulator_with_checkpoints(
                    ctx.sim, checkpoint_dir, ctx.spec.sim.checkpoint_every,
                    extra=runner.checkpoint_extra(ctx.spec))
        finally:
            close_workers(ctx.method)
    stepper.finish()


def hook_simulator(ctx, stepper: Stepper) -> None:
    """Route the simulator's public ``step`` through the stepper."""
    inner_step = ctx.sim.step
    ctx.sim.step = lambda: stepper.round(inner_step)
    ctx.trainer_step_seconds = 0.0
    if stepper.tracer is not None:
        trainer_step = ctx.trainer.step

        def timed(*args, **kwargs):
            start = now()
            try:
                return trainer_step(*args, **kwargs)
            finally:
                ctx.trainer_step_seconds += now() - start

        ctx.trainer.step = timed
