"""Predicted wire bytes == the TrainingHistory byte ledger, exactly.

The cost model's byte formulas claim to mirror the runtime's accounting
bit for bit; this runs a tiny training job for every method x backend x
compression combination and compares each round's ledger entry to the
planner's per-round totals.  Also pins the broadcast-downlink semantics:
downlink goes to every silo that received the round-start broadcast,
not just the silos whose upload survived.
"""

import numpy as np
import pytest

from repro.api.runner import run
from repro.api.spec import RunSpec
from repro.core.methods import Default, UldpAvg, UldpGroup, UldpNaive
from repro.core.weighting import RoundParticipation
from repro.cost.planner import predict
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp

TINY = {
    "name": "crosscheck",
    "rounds": 2,
    "eval_every": 2,
    "dataset": {"users": 8, "silos": 2, "records": 120, "test_records": 40},
    "method": {"local_epochs": 1},
}


def ledger_matches_prediction(tree: dict) -> None:
    spec = RunSpec.from_dict(tree)
    report = predict(spec)
    history = run(spec).history
    assert len(history.comm) == tree["rounds"]
    for record in history.comm:
        assert record.uplink_bytes == int(report.round_totals["uplink_bytes"]), (
            record,
            report.round_totals,
        )
        assert record.downlink_bytes == int(
            report.round_totals["downlink_bytes"]
        ), (record, report.round_totals)


class TestPlaintextMethods:
    @pytest.mark.parametrize(
        "method",
        ["default", "uldp-naive", "uldp-group", "uldp-sgd", "uldp-avg",
         "uldp-avg-w"],
    )
    def test_dense_ledger(self, method):
        ledger_matches_prediction(
            {**TINY, "method": {"name": method, "local_epochs": 1}}
        )


COMPRESSIONS = pytest.mark.parametrize(
    "compression",
    [
        {"sparsify": "topk", "fraction": 0.05},
        {"sparsify": "randk", "fraction": 0.1, "error_feedback": True},
        {"sparsify": "topk", "fraction": 0.1, "quantize_bits": 8},
        {"quantize_bits": 4},
        {"sparsify": "topk", "fraction": 0.05, "downlink": True},
    ],
    ids=["topk", "randk-ef", "topk-q8", "q4-dense", "topk-downlink"],
)


class TestCompression:
    @COMPRESSIONS
    def test_compressed_ledger(self, compression, method="uldp-avg-w"):
        ledger_matches_prediction(
            {
                **TINY,
                "method": {"name": method, "local_epochs": 1},
                "compression": compression,
            }
        )

    @COMPRESSIONS
    def test_uldp_sgd_compressed_ledger(self, compression):
        # ULDP-SGD compresses through the round it inherits, so the cost
        # model's byte formula is held to a ledger it can now meet.
        self.test_compressed_ledger(compression, method="uldp-sgd")


class TestSecureBackends:
    @pytest.mark.parametrize("backend", ["fast"])
    def test_paillier_ledger(self, backend):
        # rand-k keeps the ciphertext count small enough to actually
        # encrypt in a test; 256-bit keys are the protocol's test tier.
        ledger_matches_prediction(
            {
                **TINY,
                "method": {"name": "secure-uldp-avg", "local_epochs": 1},
                "crypto": {"backend": backend, "paillier_bits": 256},
                "compression": {"sparsify": "randk", "fraction": 0.01},
            }
        )

    def test_masked_ledger(self):
        ledger_matches_prediction(
            {
                **TINY,
                "method": {"name": "secure-uldp-avg", "local_epochs": 1},
                "crypto": {"backend": "masked"},
            }
        )


#: Every method charges ``silos_seen`` contributors' payloads up and its
#: broadcast to each recipient down, through ``FLMethod._log_comm``; each
#: entry pins the bytes per parameter of its payload (the ULDP-AVG release is
#: float32, the plain methods' model delta float64) and of its broadcast
#: (float32, but ULDP-GROUP's float64 for its float64 DP-SGD).
METHODS = pytest.mark.parametrize(
    "make, payload_itemsize, broadcast_itemsize",
    [
        (lambda: UldpAvg(local_epochs=1, noise_multiplier=0.0), 4, 4),
        (lambda: Default(local_epochs=1), 8, 4),
        (lambda: UldpNaive(local_epochs=1, noise_multiplier=0.0), 8, 4),
        (lambda: UldpGroup(group_size=2, local_steps=1, noise_multiplier=0.0),
         8, 8),
    ],
    ids=["uldp-avg", "default", "uldp-naive", "uldp-group"],
)


@METHODS
class TestBroadcastRecipients:
    """Downlink is charged to broadcast recipients, not contributors; every
    method's round reports its ``comm`` and the trainer guesses nothing."""

    def _prepared(self, make):
        fed = build_creditcard_benchmark(
            n_users=10, n_silos=3, n_records=300, n_test=60, seed=0
        )
        method = make()
        model = build_tiny_mlp(fed.test_x.shape[1], 8, 2, np.random.default_rng(1))
        method.prepare(fed, model, np.random.default_rng(0))
        return method, model.get_flat_params()

    def test_deadline_miss_still_consumes_downlink(
        self, make, payload_itemsize, broadcast_itemsize
    ):
        method, params = self._prepared(make)
        payload = params.size * payload_itemsize
        broadcast = params.size * broadcast_itemsize
        participation = RoundParticipation(
            silo_mask=np.array([True, False, False]),
            broadcast_mask=np.array([True, True, False]),
        )
        report = method.round(0, params, participation=participation)
        # One contributor's uplink; two silos fetched the broadcast.
        assert report.participation.silos_seen == 1
        assert report.comm.uplink_bytes == 1 * payload
        assert report.comm.downlink_bytes == 2 * broadcast

    def test_all_down_round_still_charges_broadcast(
        self, make, payload_itemsize, broadcast_itemsize
    ):
        method, params = self._prepared(make)
        broadcast = params.size * broadcast_itemsize
        participation = RoundParticipation(
            silo_mask=np.array([False, False, False]),
            broadcast_mask=np.array([True, True, False]),
        )
        comm = method.round(0, params, participation=participation).comm
        assert comm.uplink_bytes == 0
        assert comm.downlink_bytes == 2 * broadcast

    def test_without_broadcast_mask_recipients_default_to_contributors(
        self, make, payload_itemsize, broadcast_itemsize
    ):
        method, params = self._prepared(make)
        broadcast = params.size * broadcast_itemsize
        participation = RoundParticipation(
            silo_mask=np.array([True, True, False])
        )
        comm = method.round(0, params, participation=participation).comm
        assert comm.downlink_bytes == 2 * broadcast
