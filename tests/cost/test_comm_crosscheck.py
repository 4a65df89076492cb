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
from repro.core.methods import UldpAvg
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


class TestBroadcastRecipients:
    """Downlink is charged to broadcast recipients, not contributors."""

    def _prepared(self):
        fed = build_creditcard_benchmark(
            n_users=10, n_silos=3, n_records=300, n_test=60, seed=0
        )
        method = UldpAvg(local_epochs=1, noise_multiplier=0.0)
        model = build_tiny_mlp(fed.test_x.shape[1], 8, 2, np.random.default_rng(1))
        method.prepare(fed, model, np.random.default_rng(0))
        return method, model.get_flat_params()

    def test_deadline_miss_still_consumes_downlink(self):
        method, params = self._prepared()
        dense = params.size * 8
        participation = RoundParticipation(
            silo_mask=np.array([True, False, False]),
            broadcast_mask=np.array([True, True, False]),
        )
        method.round(0, params, participation=participation)
        # One contributor's uplink; two silos fetched the broadcast.
        assert method.last_comm.uplink_bytes == 1 * dense
        assert method.last_comm.downlink_bytes == 2 * dense

    def test_all_down_round_still_charges_broadcast(self):
        method, params = self._prepared()
        dense = params.size * 8
        participation = RoundParticipation(
            silo_mask=np.array([False, False, False]),
            broadcast_mask=np.array([True, True, False]),
        )
        method.round(0, params, participation=participation)
        assert method.last_comm.uplink_bytes == 0
        assert method.last_comm.downlink_bytes == 2 * dense

    def test_without_broadcast_mask_recipients_default_to_contributors(self):
        method, params = self._prepared()
        dense = params.size * 8
        participation = RoundParticipation(
            silo_mask=np.array([True, True, False])
        )
        method.round(0, params, participation=participation)
        assert method.last_comm.downlink_bytes == 2 * dense
