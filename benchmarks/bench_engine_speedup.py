"""Engine timing: ULDP-AVG rounds on the Figure 5 MNIST configuration.

Runs the Figure 5 MNIST configuration (|S| = 5, CNN with ~20K parameters,
sigma = 5, Q = 1 -- the exact `bench_fig05` workload, evaluated every
round like the figure benches) at |U| = 50 (Fig. 5a) and |U| = 400
(Fig. 5d) and records the wall-clock time spent inside ``method.round``
on the batched engine (`repro.core.engine`): one shared forward/backward
over all users' records with segmented per-user reductions, row-wise
clipping, and a binned weighted fold.  These are the rows the cost
model's CNN training constants are fitted from (`cost/calibrate.py`).

This file used to race the engine against the per-user loop it replaced
and assert a host-dependent speedup.  The loop is no longer a runtime
path (it is the test oracle ``tests/core/oracle_loop.py``, and
``tests/core/test_engine_equivalence.py`` holds the atol 1e-10
agreement); the committed ``BENCH_engine.json`` is the last
loop-vs-engine record (1-CPU host: 3.19x at |U| = 50, 2.41x at 400).
Re-running this bench replaces those sections with timings only.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_engine_speedup.py -s
 or:  PYTHONPATH=src python benchmarks/bench_engine_speedup.py
"""

from conftest import write_bench_json

from repro.core import Trainer, UldpAvg
from repro.data import build_mnist_benchmark

SIGMA = 5.0
ROUNDS = 3
N_RECORDS = 1200


def time_engine(n_users, seed=7):
    """One fig05 ULDP-AVG run; prints and records its round seconds."""
    fed = build_mnist_benchmark(
        n_users=n_users, n_silos=5, distribution="uniform", non_iid=False,
        n_records=N_RECORDS, n_test=300, seed=6,
    )
    method = UldpAvg(noise_multiplier=SIGMA, local_epochs=1, local_lr=0.1)
    history = Trainer(fed, method, rounds=ROUNDS, seed=seed, eval_every=1).run()

    print(f"\n== Fig. 5 MNIST, |U|={n_users}, |S|=5, sigma={SIGMA}, Q=1 ==")
    for t, seconds in enumerate(history.round_seconds):
        print(f"round {t + 1}: {seconds:.3f} s")
    print(f"total:   {history.total_round_seconds:.3f} s")
    write_bench_json(
        "BENCH_engine.json",
        {
            f"fig05_u{n_users}": {
                "n_users": n_users,
                "n_silos": 5,
                "rounds": ROUNDS,
                "vectorized_seconds": round(history.total_round_seconds, 3),
            }
        },
    )


def test_engine_timing_u50():
    """Fig. 5a (|U|=50)."""
    time_engine(50)


def test_engine_timing_u400():
    """Fig. 5d (|U|=400)."""
    time_engine(400)


if __name__ == "__main__":
    test_engine_timing_u50()
    test_engine_timing_u400()
