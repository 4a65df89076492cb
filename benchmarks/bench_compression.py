"""Update-compression bench: wire bytes vs utility on the Figure 5 config.

Runs ULDP-AVG-w on the Fig. 5 MNIST workload twice -- dense float64
payloads vs the compressed pipeline (top-5% sparsification, 8-bit
stochastic quantization, per-silo error feedback) -- and asserts the
PR's contract:

1. **>= 10x uplink byte reduction** (the analytic pipeline delivers ~30x
   at these settings);
2. **identical epsilon to the last bit**: compression is strictly
   post-noise, so the accountant's view is unchanged (post-processing);
3. **small utility delta**: the compressed run's final accuracy stays
   within ``ACCURACY_TOLERANCE`` of the dense run.

A secure-path section measures the random-k ciphertext reduction of the
sparse Protocol 1 round on a small federation.

Results land in ``BENCH_compression.json`` at the repo root, next to the
engine/protocol/sim bench JSONs.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_compression.py -s
 or:  PYTHONPATH=src python benchmarks/bench_compression.py
Scale down (CI smoke):  BENCH_COMPRESSION_SCALE=smoke ... same commands.
"""

import os
import time

import numpy as np
from conftest import host_info, print_header, write_bench_json

from repro.compress import CompressionSpec
from repro.core import Trainer, UldpAvg
from repro.crypto.dh import DHGroup
from repro.data import build_creditcard_benchmark, build_mnist_benchmark
from repro.nn.model import build_tiny_mlp
from repro.protocol import SecureUldpAvg

SIGMA = 5.0
ROUNDS = 3
MIN_UPLINK_REDUCTION = 10.0
ACCURACY_TOLERANCE = 0.15

#: The bench's compression recipe (the bandwidth scenarios use the same).
SPEC = CompressionSpec(
    sparsify="topk", fraction=0.05, quantize_bits=8, error_feedback=True
)


def _fig05_workload():
    """The Fig. 5 MNIST config (U50 uniform iid), or a CI smoke shrink."""
    scale = os.environ.get("BENCH_COMPRESSION_SCALE", "fig05")
    if scale == "smoke":
        params = dict(n_users=12, n_records=400, n_test=100)
    else:
        params = dict(n_users=50, n_records=1200, n_test=300)
    fed = build_mnist_benchmark(
        n_silos=5, distribution="uniform", non_iid=False, seed=6, **params
    )
    return scale, fed


def _run(fed, compression):
    method = UldpAvg(
        noise_multiplier=SIGMA, local_epochs=1, local_lr=0.1,
        weighting="proportional",
    )
    start = time.perf_counter()
    trainer = Trainer(fed, method, rounds=ROUNDS, seed=7, compression=compression)
    history = trainer.run()
    seconds = time.perf_counter() - start
    return history, seconds


def _bench_plaintext() -> dict:
    scale, fed = _fig05_workload()
    dense_history, dense_seconds = _run(fed, None)
    compressed_history, compressed_seconds = _run(fed, SPEC)

    dense_up = dense_history.total_uplink_bytes
    compressed_up = compressed_history.total_uplink_bytes
    reduction = dense_up / compressed_up
    dense_final = dense_history.final
    compressed_final = compressed_history.final
    accuracy_delta = compressed_final.metric - dense_final.metric

    assert reduction >= MIN_UPLINK_REDUCTION, (
        f"uplink reduction {reduction:.1f}x below the {MIN_UPLINK_REDUCTION}x floor"
    )
    # Post-processing invariance: the accountant saw identical calls.
    assert compressed_final.epsilon == dense_final.epsilon
    assert abs(accuracy_delta) <= ACCURACY_TOLERANCE, (
        f"compressed accuracy drifted {accuracy_delta:+.3f} "
        f"(tolerance {ACCURACY_TOLERANCE})"
    )

    return {
        "scale": scale,
        "rounds": ROUNDS,
        "sigma": SIGMA,
        "n_users": fed.n_users,
        "model_params": dense_history.comm[0].uplink_bytes // (8 * fed.n_silos),
        "spec": {
            "sparsify": SPEC.sparsify,
            "fraction": SPEC.fraction,
            "quantize_bits": SPEC.quantize_bits,
            "error_feedback": SPEC.error_feedback,
        },
        "dense_uplink_bytes": dense_up,
        "compressed_uplink_bytes": compressed_up,
        "uplink_reduction": reduction,
        "dense_accuracy": dense_final.metric,
        "compressed_accuracy": compressed_final.metric,
        "accuracy_delta": accuracy_delta,
        "epsilon": dense_final.epsilon,
        "epsilon_identical": compressed_final.epsilon == dense_final.epsilon,
        "dense_seconds": dense_seconds,
        "compressed_seconds": compressed_seconds,
    }


def _bench_secure() -> dict:
    """Random-k sparse Protocol 1: ciphertext uplink shrinks by d/k."""
    fed = build_creditcard_benchmark(
        n_users=6, n_silos=3, n_records=120, n_test=40, seed=0
    )
    spec = CompressionSpec(sparsify="randk", fraction=0.1, seed=3)

    def run(compression):
        model = build_tiny_mlp(30, 4, 2, np.random.default_rng(42))
        method = SecureUldpAvg(
            local_epochs=1, noise_multiplier=1.0, local_lr=0.1,
            paillier_bits=256, compression=compression,
            # Legacy bench: the toy group its committed numbers were taken on.
            dh_group=DHGroup.test_group(),
        )
        start = time.perf_counter()
        history = Trainer(fed, method, rounds=2, model=model, seed=7).run()
        return history, time.perf_counter() - start, model.num_params

    dense_history, dense_seconds, dim = run(None)
    sparse_history, sparse_seconds, _ = run(spec)
    reduction = (
        dense_history.total_uplink_bytes / sparse_history.total_uplink_bytes
    )
    expected = dim / spec.keep_count(dim)
    assert reduction == expected, "ciphertext reduction must be exactly d/k"
    assert sparse_history.final.epsilon == dense_history.final.epsilon
    return {
        "model_params": dim,
        "kept_fraction": spec.fraction,
        "dense_uplink_bytes": dense_history.total_uplink_bytes,
        "sparse_uplink_bytes": sparse_history.total_uplink_bytes,
        "ciphertext_reduction": reduction,
        "dense_seconds": dense_seconds,
        "sparse_seconds": sparse_seconds,
    }


def test_compression_tradeoff():
    """Populate BENCH_compression.json with both measurements."""
    print_header("update-compression bench (fig05 config)")

    plaintext = _bench_plaintext()
    print(
        f"plaintext: {plaintext['uplink_reduction']:.1f}x uplink reduction "
        f"({plaintext['dense_uplink_bytes'] / 1e6:.2f} MB -> "
        f"{plaintext['compressed_uplink_bytes'] / 1e6:.3f} MB over {ROUNDS} rounds) | "
        f"accuracy {plaintext['dense_accuracy']:.3f} -> "
        f"{plaintext['compressed_accuracy']:.3f} "
        f"({plaintext['accuracy_delta']:+.3f}) | eps identical: "
        f"{plaintext['epsilon_identical']}"
    )

    secure = _bench_secure()
    print(
        f"secure randk: {secure['ciphertext_reduction']:.1f}x ciphertext "
        f"reduction at fraction {secure['kept_fraction']} "
        f"({secure['dense_uplink_bytes'] / 1e6:.2f} MB -> "
        f"{secure['sparse_uplink_bytes'] / 1e6:.3f} MB) | "
        f"round time {secure['dense_seconds']:.1f}s -> {secure['sparse_seconds']:.1f}s"
    )

    path = write_bench_json(
        "BENCH_compression.json",
        {
            "plaintext_fig05": plaintext,
            "secure_randk": secure,
            "host": host_info(),
        },
    )
    print(f"results written to {path}")


if __name__ == "__main__":
    test_compression_tradeoff()
