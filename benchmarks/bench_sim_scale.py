"""Simulation-runtime scale bench: million-user churn + 100-round dropout.

Two measurements of the :mod:`repro.sim` federation runtime:

1. **Population scale** -- holds the activity mask of a >= 1M-user
   population (one ``np.bool_`` per user, what
   :class:`repro.sim.FederationSimulator` keeps as ``user_active``) and
   drives 100 rounds of :class:`repro.sim.ChurnProcess` across it.
   Reports churn throughput and the bytes held (exactly one per user).

2. **Dropout scenario** -- runs the ``flaky-silos`` scenario (iid 30 %
   per-round silo dropout) for 100 rounds end to end through
   ``repro.run(spec)``, asserting the
   participation log shows real dropout and the accountant recorded one
   honest release per round.  Reports rounds/second.

Both sections land in ``BENCH_sim.json`` at the repo root next to the
engine and protocol bench JSONs.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sim_scale.py -s
 or:  PYTHONPATH=src python benchmarks/bench_sim_scale.py
"""

import time

import numpy as np
from conftest import host_info, print_header, write_bench_json

from repro.api import RunSpec, run
from repro.sim import ChurnProcess

POPULATION_USERS = 1_200_000
CHURN_ROUNDS = 100
SCENARIO_ROUNDS = 100


def _bench_population() -> dict:
    """>= 1M-user activity mask: 100 churn rounds."""
    rng = np.random.default_rng(0)
    active = np.ones(POPULATION_USERS, dtype=np.bool_)
    churn = ChurnProcess(departure_rate=0.01, arrival_rate=0.005)
    arrivals = departures = 0
    start = time.perf_counter()
    for _ in range(CHURN_ROUNDS):
        arrived, departed = churn.step(active, rng)
        arrivals += arrived
        departures += departed
    churn_seconds = time.perf_counter() - start
    assert active.sum() == POPULATION_USERS + arrivals - departures

    return {
        "n_users": POPULATION_USERS,
        "churn_rounds": CHURN_ROUNDS,
        "churn_seconds": churn_seconds,
        "churn_users_per_second": CHURN_ROUNDS * POPULATION_USERS / churn_seconds,
        "resident_mb": active.nbytes / 1e6,
        "active_after_churn": int(active.sum()),
        "total_arrivals": arrivals,
        "total_departures": departures,
    }


def _bench_scenario() -> dict:
    """100-round flaky-silos dropout scenario, end to end."""
    start = time.perf_counter()
    spec = RunSpec.from_dict({
        "seed": 0, "rounds": SCENARIO_ROUNDS,
        "sim": {"scenario": "flaky-silos", "scale": "smoke"},
    })
    sim = run(spec).simulator
    seconds = time.perf_counter() - start
    history = sim.history
    assert len(history.round_seconds) == SCENARIO_ROUNDS
    assert len(sim.method.accountant.releases) == SCENARIO_ROUNDS
    silos_seen = [p.silos_seen for p in history.participation]
    assert min(silos_seen) < sim.fed.n_silos, "dropout never struck in 100 rounds?"
    summary = history.participation_summary()
    assert summary is not None
    final = history.final
    return {
        "scenario": "flaky-silos",
        "rounds": SCENARIO_ROUNDS,
        "seconds": seconds,
        "rounds_per_second": SCENARIO_ROUNDS / seconds,
        "final_metric": final.metric,
        "final_epsilon": final.epsilon,
        "mean_silos_seen": summary[0],
        "mean_users_seen": summary[1],
        "min_silos_seen": int(min(silos_seen)),
    }


def test_sim_scale():
    """Populate BENCH_sim.json with both scale measurements."""
    print_header("simulation runtime scale bench")

    population = _bench_population()
    print(
        f"population: {population['n_users']:,} users | {CHURN_ROUNDS} churn rounds "
        f"in {population['churn_seconds']:.2f} s "
        f"({population['churn_users_per_second']:.3g} user-rounds/s) | "
        f"resident {population['resident_mb']:.1f} MB"
    )

    scenario = _bench_scenario()
    print(
        f"scenario: {scenario['scenario']} x {scenario['rounds']} rounds in "
        f"{scenario['seconds']:.1f} s ({scenario['rounds_per_second']:.2f} rounds/s) | "
        f"mean participation {scenario['mean_silos_seen']:.2f} silos / "
        f"{scenario['mean_users_seen']:.1f} users | eps {scenario['final_epsilon']:.2f}"
    )

    path = write_bench_json(
        "BENCH_sim.json",
        {
            "population_scale": population,
            "dropout_scenario": scenario,
            "host": host_info(),
        },
    )
    print(f"results written to {path}")


if __name__ == "__main__":
    test_sim_scale()
