"""Secure aggregation speed: fast Paillier vs. pairwise masks.

Reproduces the paper's Fig. 10/11 per-phase breakdown (key generation,
offline randomizer pools, encrypted weight broadcast, per-silo weighted
encryption, aggregation + decryption) for one full `run_round` of
Protocol 1, and benchmarks the ``masked`` backend (Bonawitz-style pairwise
masks in Z_{2^64}, `repro.crypto.secagg`) on the identical inputs: each
silo's proportional-weight release ``z_s + sum_u (n_su / N_u) * delta_su``,
formed inside the timed window, which the silo masks and uploads:

- **test scale** (512-bit keys, |S| = 5, |U| = 50, d = 1024): the headline
  configuration.  The masked backend must be >= 10x faster than fast
  Paillier, and the two aggregates must agree within both encodings'
  summed half-precision bound (:func:`encoding_bound`).
- **paper scale** (3072-bit keys, the paper's security level): a small
  d/|U| configuration that exercises the same phases at production key
  sizes, reported for the breakdown; CRT decryption and the CRT-split
  encryptions dominate here.

Per-silo wire cost is recorded alongside: a Paillier round ships one
`2 * key_bits`-bit ciphertext per coordinate, a masked round one 8-byte
element of Z_{2^64} -- byte accounting for both lands in
`BENCH_protocol.json` for cross-PR tracking.

The seed Paillier implementation this bench used to time as a third
column is a test oracle now (``tests/protocol/oracle_reference.py``; the
equivalence asserted here lives in tier-1 against it).  The last
three-way record is `BENCH_protocol.json` up to commit 6c06a74: 169.3 s
reference vs 36.6 s fast vs 0.08 s masked per test-scale round; the file
was re-recorded (two-way, ``workers=1``) when the weighting kernel's
exponent was split -- 12.6 s fast, of which 10.1 s is offline randomizers.

``BENCH_PROTOCOL_SCALE=smoke`` shrinks the test-scale workload (CI's
smoke job) and skips the paper-scale breakdown.

Run:  make bench-protocol
 or:  PYTHONPATH=src python -m pytest benchmarks/bench_protocol_speedup.py -s
 or:  PYTHONPATH=src python benchmarks/bench_protocol_speedup.py
"""

import os
import time

import numpy as np
import pytest
from conftest import print_header, write_bench_json

from repro.crypto.dh import DHGroup
from repro.crypto.secagg import MaskedAggregationProtocol
from repro.protocol import PrivateWeightingProtocol

MASKED_TARGET_SPEEDUP = 10.0
SEED = 11
#: Masked rounds timed at the headline scale (per-round seconds are their
#: mean, ``phases_masked`` their cumulative report): one round's phases sit
#: under the cost fit's 2 ms noise floor (``repro.cost.calibrate.MIN_FIT_SECONDS``).
MASKED_ROUNDS = 20
# Legacy bench: keeps the 512-bit toy DH group its committed numbers (and
# cost/calibration.json) were measured on; the runtime default is RFC 3526.
DH_GROUP = DHGroup.test_group()

#: "full" (default) or "smoke" -- CI's bench-protocol job runs the same
#: comparison at toy scale.
SCALE = os.environ.get("BENCH_PROTOCOL_SCALE", "full")

# Headline configuration: |S|=5, |U|=50, d=1k-scale at 512-bit test keys.
if SCALE == "smoke":
    N_SILOS, N_USERS, DIM = 3, 12, 64
else:
    N_SILOS, N_USERS, DIM = 5, 50, 1024
KEY_BITS = 512
N_MAX = 8

# Paper-scale configuration: the paper's 3072-bit security level, scaled
# down in d/|U| so the breakdown is demonstrable in tens of seconds.
PAPER_KEY_BITS = 3072
PAPER_SILOS = 2
PAPER_USERS = 4
PAPER_DIM = 4


def build_histogram(n_silos, n_users, seed=0):
    """Each user holds records in one or two silos (counts 1..4)."""
    rng = np.random.default_rng(seed)
    hist = np.zeros((n_silos, n_users), dtype=np.int64)
    for u in range(n_users):
        primary = u % n_silos
        hist[primary, u] = rng.integers(1, 5)
        if rng.random() < 0.4 and n_silos > 1:
            secondary = (primary + 1 + rng.integers(n_silos - 1)) % n_silos
            hist[secondary, u] = rng.integers(1, 5)
    return hist


def round_inputs(hist, d, seed=1):
    rng = np.random.default_rng(seed)
    deltas, noises = [], []
    for s in range(hist.shape[0]):
        per_user = {
            u: rng.standard_normal(d)
            for u in range(hist.shape[1])
            if hist[s, u] > 0
        }
        deltas.append(per_user)
        noises.append(rng.standard_normal(d))
    return deltas, noises


def timed_round(hist, d, key_bits):
    """Setup + one timed Paillier run_round; returns (aggregate, proto, seconds)."""
    # workers=1: the phases are single-core seconds (what the cost model's
    # constants mean) on any host, and the smoke round does not time the
    # start of a process pool.
    proto = PrivateWeightingProtocol(
        hist, n_max=N_MAX, paillier_bits=key_bits, seed=SEED, dh_group=DH_GROUP,
        workers=1,
    )
    proto.run_setup()
    deltas, noises = round_inputs(hist, d)
    start = time.perf_counter()
    aggregate = proto.run_round(deltas, noises)
    seconds = time.perf_counter() - start
    return aggregate, proto, seconds


def silo_releases(hist, deltas, noises):
    """Each silo's proportional-weight release, in float64."""
    totals = hist.sum(axis=0)
    return [
        noise + sum((hist[s, u] / totals[u]) * delta for u, delta in per_user.items())
        for s, (per_user, noise) in enumerate(zip(deltas, noises))
    ]


def timed_masked_round(hist, d, rounds):
    """Masked backend on the identical inputs, ``rounds`` times over: each
    silo forms its release, encodes and masks it; the server sums and
    decodes.  Returns the last aggregate and the mean round's seconds."""
    proto = MaskedAggregationProtocol(hist.shape[0], seed=SEED, dh_group=DH_GROUP)
    proto.run_setup()
    deltas, noises = round_inputs(hist, d)
    start = time.perf_counter()
    for _ in range(rounds):
        aggregate = proto.run_round(silo_releases(hist, deltas, noises))
    seconds = (time.perf_counter() - start) / rounds
    return aggregate, proto, seconds


def encoding_bound(hist, precision):
    """How far the two aggregates may sit apart: Paillier rounds each of
    a silo's ``|U| + 1`` encoded terms by up to P/2 and masked each silo's
    release once."""
    n_silos, n_users = hist.shape
    return (n_silos * (n_users + 1) + n_silos) * precision / 2


def print_breakdown(title, protocols):
    print(f"\n{title}")
    for backend, proto in protocols.items():
        print(f"[{backend}]")
        for name, seconds in sorted(proto.report().items()):
            print(f"  {name:<28s} {seconds * 1000:10.1f} ms")


def compare_backends(hist, d, key_bits, label, masked_rounds=1):
    agg_fast, proto_fast, t_fast = timed_round(hist, d, key_bits)
    agg_masked, proto_masked, t_masked = timed_masked_round(hist, d, masked_rounds)

    # Both decode a fixed-point sum of the same weighted terms: Paillier
    # per (silo, user), masked per silo release.
    gap = float(np.max(np.abs(agg_masked - agg_fast)))
    bound = encoding_bound(hist, proto_masked.precision)
    assert gap <= bound, (
        f"masked backend is {gap:.3g} from the Paillier aggregate (bound {bound:.3g})"
    )

    masked_speedup = t_fast / t_masked
    cipher_bytes = d * proto_fast.ciphertext_bytes
    mask_bytes = d * proto_masked.coordinate_bytes
    print_header(
        f"Secure aggregation round, {label}: {key_bits}-bit keys, "
        f"|S|={hist.shape[0]}, |U|={hist.shape[1]}, d={d}"
    )
    print(f"fast backend:      {t_fast:8.2f} s")
    print(f"masked backend:    {t_masked:8.4f} s   -> {masked_speedup:.1f}x vs fast "
          f"(mean of {masked_rounds} round(s))")
    print(f"aggregates {gap:.3g} apart (encoding bound {bound:.3g})")
    print(
        f"per-silo uplink: {cipher_bytes} ciphertext bytes (Paillier) vs "
        f"{mask_bytes} mask bytes ({cipher_bytes / mask_bytes:.1f}x smaller)"
    )
    print_breakdown(
        "per-phase breakdown (Fig. 10/11 style):",
        {"fast": proto_fast, "masked": proto_masked},
    )
    return {
        "key_bits": key_bits,
        "n_silos": int(hist.shape[0]),
        "n_users": int(hist.shape[1]),
        "dim": d,
        "fast_seconds": round(t_fast, 3),
        "masked_seconds": round(t_masked, 4),
        "masked_speedup_vs_fast": round(masked_speedup, 2),
        "masked_rounds": masked_rounds,
        "per_silo_ciphertext_bytes": cipher_bytes,
        "per_silo_mask_bytes": mask_bytes,
        "phases_fast": {
            k: round(v, 4) for k, v in proto_fast.report().items()
        },
        "phases_masked": {
            k: round(v, 4) for k, v in proto_masked.report().items()
        },
    }


def test_protocol_speedup_test_keys():
    """Headline: masked >= 10x over fast Paillier, aggregates within the
    encodings' bound."""
    hist = build_histogram(N_SILOS, N_USERS)
    result = compare_backends(
        hist, DIM, KEY_BITS, label=f"{SCALE} test scale",
        masked_rounds=MASKED_ROUNDS if SCALE == "full" else 1,
    )
    key = "test_scale" if SCALE == "full" else f"test_scale_{SCALE}"
    write_bench_json("BENCH_protocol.json", {key: result})
    assert result["masked_speedup_vs_fast"] >= MASKED_TARGET_SPEEDUP, (
        f"masked backend only {result['masked_speedup_vs_fast']:.1f}x faster "
        f"than fast Paillier (target {MASKED_TARGET_SPEEDUP}x)"
    )


def test_protocol_breakdown_paper_keys():
    """Paper-scale 3072-bit keys: per-phase breakdown + bounded agreement."""
    if SCALE == "smoke":
        pytest.skip("paper-scale breakdown skipped under BENCH_PROTOCOL_SCALE=smoke")
    hist = build_histogram(PAPER_SILOS, PAPER_USERS)
    result = compare_backends(hist, PAPER_DIM, PAPER_KEY_BITS, label="paper scale")
    write_bench_json("BENCH_protocol.json", {"paper_scale": result})


if __name__ == "__main__":
    test_protocol_speedup_test_keys()
    if SCALE != "smoke":
        test_protocol_breakdown_paper_keys()
