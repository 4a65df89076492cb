"""Host description and noise readings for the benchmark's records.

Everything here reads ``/proc`` (Linux); on another platform the readers
return zeros rather than failing, so the benchmark still runs but the
noise guard is blind.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

#: BLAS thread pins applied to every child (see bench/README.md for the
#: measured reason: free-running OpenBLAS on 2 shared cores made the same
#: run 1.5-2x slower and far noisier).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A suite run whose steal share is above this is marked ``noisy`` and
#: re-run once.  Quiet minutes on the sizing host read 0.00-0.15, busy
#: ones 0.35.
STEAL_NOISY_SHARE = 0.45


def cpu_times() -> tuple[int, int]:
    """``(steal, busy)`` jiffies summed over all CPUs, from ``/proc/stat``.

    ``busy`` is user + nice + system + irq + softirq: time some process
    of this machine actually ran.
    """
    try:
        with open("/proc/stat", "rb") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return 0, 0
    v = [int(x) for x in fields] + [0] * 8
    return v[7], v[0] + v[1] + v[2] + v[5] + v[6]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the wanted CPU time the hypervisor gave to someone else:
    ``steal / (steal + busy)`` between two :func:`cpu_times` readings."""
    steal = after[0] - before[0]
    total = steal + after[1] - before[1]
    return steal / total if total > 0 else 0.0


#: What one :class:`SpeedProbe` sample takes on the sizing host in a quiet
#: hour.  It only fixes the unit of :func:`undisturbed` durations; any
#: other value would scale every reported duration alike.
NOMINAL_PROBE_S = 0.0035

#: Samples taken at the first round start; one more before every later round.
FIRST_PROBES = 5


class SpeedProbe:
    """A fixed ~3.5 ms piece of work -- a loop of interpreted Python and a
    256 x 256 matrix product into a preallocated result -- that a child
    times before every round, with the round clock stopped.

    It allocates nothing after construction (1.5 MB once), so it leaves
    the allocator and the page-fault count of the measured program alone,
    and it touches less memory than one round of any workload does.  It
    has to run *inside* the child: the same probe timed by the parent
    between children tracked the children's speed with correlation
    0.3-0.9 only and left twice the spread (bench/baseline/noise.txt).
    See :func:`undisturbed` for what the samples are for.
    """

    def __init__(self):
        import numpy as np

        self._matmul = np.matmul
        self._matrix = np.random.default_rng(0).normal(size=(256, 256))
        self._result = np.empty((256, 256))

    def sample(self) -> float:
        """Run once; the duration in seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        self._matmul(self._matrix, self._matrix, out=self._result)
        return time.perf_counter() - start


def speed_index(samples: list[float]) -> float:
    """How slow the host ran during a child, 1 = nominal; the median
    ignores the samples a steal burst hit."""
    return statistics.median(samples) / NOMINAL_PROBE_S


def undisturbed(seconds: float, stolen: float, index: float) -> float:
    """A wall-clock duration as the benchmark reports it: the stolen share
    taken out, at the host's nominal speed.

    ``seconds * (1 - stolen) / index``.  The children measure plain
    wall-clock; this is the one place it is corrected (by the parent,
    with the child's own steal share and speed index), and the suite
    record keeps the raw readings beside the result.  Why at all: the
    sizing host is a shared 2-vCPU VM on which plain wall-clock does not
    repeat within any bound the benchmark could gate -- the same seed
    fourteen times over twenty minutes spread (interquartile / median)
    0.22-0.66 in ``run_s`` raw, 0.09-0.13 corrected
    (bench/baseline/noise.txt).

    *Steal.*  A run that keeps its CPUs busy takes ``work / (1 - share)``
    of wall-clock, ``share`` being :func:`steal_share` over the run: the
    same ``train_cnn`` child took 3.6 s at share 0.00, 4.9 s at 0.15 and
    6.0 s at 0.26.

    *Speed.*  With nothing stolen the machine's own speed still steps by
    1.25-1.5x from one quarter of an hour to the next (sibling
    hyper-threads, the neighbours' cache and memory traffic), for every
    workload at once; ``index`` is :func:`speed_index` over the child's
    :class:`SpeedProbe` samples.

    On an unshared machine of the sizing host's speed both factors are 1.
    """
    return seconds * (1.0 - stolen) / index


def load1() -> float:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0


def peak_rss_mb() -> float:
    """This process's ``VmHWM`` plus the largest reaped child's RSS (MB)."""
    import resource

    own_kb = 0
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
                break
    except OSError:
        pass
    if not own_kb:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_block(root: Path) -> dict:
    """Where and with what a set of runs was taken (suite-mode records)."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": dict(THREAD_ENV),
        "git_rev": _git_rev(root),
        "steal_noisy_share": STEAL_NOISY_SHARE,
        "nominal_probe_s": NOMINAL_PROBE_S,
    }
