"""Figure 10: private weighting protocol on the FLamby-style scenarios.

Paper setting: Protocol 1 running HeartDisease (10 users) and TcgaBrca
(100 users) with zipf allocation; reports local-training time per silo and
the protocol overhead phases (key exchange, blinded histograms,
aggregation).  Paper finding: local training dominates and the whole
round is practical for small models.

Scaled: 512-bit Paillier (paper: 3072-bit) and 30 users for TcgaBrca; the
phase *ordering* is the reproduced result, not absolute times.
"""

import time

import pytest
from conftest import print_header

from repro.core import Trainer
from repro.crypto.dh import DHGroup
from repro.data import build_heartdisease_benchmark, build_tcgabrca_benchmark
from repro.protocol import SecureUldpAvg

SIGMA = 5.0
ROUNDS = 2
# Legacy bench: keeps the 512-bit toy DH group its committed numbers (and
# cost/calibration.json) were measured on; the runtime default is RFC 3526.
DH_GROUP = DHGroup.test_group()


def run_secure(fed, local_lr):
    method = SecureUldpAvg(
        noise_multiplier=SIGMA, local_epochs=1, local_lr=local_lr,
        paillier_bits=512, dh_group=DH_GROUP,
    )
    start = time.perf_counter()
    history = Trainer(fed, method, rounds=ROUNDS, seed=17).run()
    total = time.perf_counter() - start
    report = method.timing_report()
    protocol_time = sum(report.values())
    report["local_training_and_rest"] = total - protocol_time
    return history, report


CONFIGS = [
    pytest.param("heartdisease", 10, 0.05, id="heartdisease-U10"),
    pytest.param("tcgabrca", 30, 0.01, id="tcgabrca-U30"),
]


@pytest.mark.parametrize("dataset,n_users,lr", CONFIGS)
def test_fig10_protocol_flamby(benchmark, dataset, n_users, lr):
    if dataset == "heartdisease":
        fed = build_heartdisease_benchmark(n_users=n_users, distribution="zipf", seed=18)
    else:
        fed = build_tcgabrca_benchmark(n_users=n_users, distribution="zipf", seed=18)

    history, report = benchmark.pedantic(
        run_secure, args=(fed, lr), rounds=1, iterations=1
    )

    print_header(
        f"Figure 10 ({dataset}, |U|={n_users}, zipf): Protocol 1 timing, "
        f"{ROUNDS} rounds, 512-bit Paillier"
    )
    for phase, seconds in sorted(report.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:<28s} {seconds * 1000:10.1f} ms")
    print(f"\n  final {history.final.metric_name}={history.final.metric:.4f} "
          f"eps={history.final.epsilon:.3f}")

    # Paper shape: per-silo cryptographic weighting + training dominates the
    # one-off setup phases.
    work = report["silo_weighted_encryption"] + report["local_training_and_rest"]
    setup = report["key_exchange"] + report["blinded_histogram"]
    assert work > setup
