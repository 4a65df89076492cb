"""Symbolic invariants of the cost model (repro.cost.model).

These pin the *structure* of the expressions: monotonicity in the
workload symbols, exact agreement of the wire-byte formulas with the
runtime implementations they mirror, and the documented masked-vs-
Paillier payload ratio.
"""

import pytest
import sympy as sp

from repro.api.spec import RunSpec
from repro.compress import CompressionSpec
from repro.cost import model as M
from repro.cost.calibrate import load_calibration
from repro.cost.model import (
    build_cost_model,
    ciphertext_bytes_expr,
    keep_count_expr,
    mask_bytes_expr,
    payload_bytes_expr,
)

#: Baseline numeric point every monotonicity probe perturbs.
BASE = {
    M.USERS: 100,
    M.SILOS: 5,
    M.DIM: 4130,
    M.RECORDS_PER_USER: 40,
    M.EPOCHS: 2,
    M.FEATURES: 30,
    M.ROUNDS: 5,
    M.KEY_BITS: 512,
    M.MASK_BITS: 256,
    M.POPULATION: 100,
    M.PARTICIPATION: 1.0,
}


def _spec(tree=None) -> RunSpec:
    base = {"dataset": {"users": 100, "silos": 5, "records": 4000}}
    base.update(tree or {})
    return RunSpec.from_dict(base)


def _run_seconds(spec: RunSpec):
    model = build_cost_model(spec)
    return model.run_total("seconds").subs(load_calibration().symbol_subs())


class TestMonotonicity:
    """More work can never be predicted cheaper."""

    def probe(self, expr, symbol, lo, hi):
        a = float(sp.N(expr.subs({**BASE, symbol: lo})))
        b = float(sp.N(expr.subs({**BASE, symbol: hi})))
        assert 0 < a < b, f"{symbol}: {a} !< {b}"

    def test_seconds_monotone_in_users(self):
        expr = _run_seconds(_spec())
        self.probe(expr, M.USERS, 100, 1000)

    def test_seconds_monotone_in_dim(self):
        expr = _run_seconds(_spec())
        self.probe(expr, M.DIM, 100, 10_000)

    def test_secure_monotone_in_silos(self):
        # both backends do per-silo crypto work
        for backend in ("fast", "masked"):
            expr = _run_seconds(
                _spec(
                    {
                        "method": {"name": "secure-uldp-avg"},
                        "crypto": {"backend": backend},
                    }
                )
            )
            self.probe(expr, M.SILOS, 5, 50)

    def test_secure_seconds_monotone_in_key_bits(self):
        expr = _run_seconds(
            _spec(
                {
                    "method": {"name": "secure-uldp-avg"},
                    "crypto": {"backend": "fast"},
                }
            )
        )
        self.probe(expr, M.KEY_BITS, 512, 3072)

    def test_uplink_monotone_in_dim(self):
        model = build_cost_model(_spec({"compression": {"sparsify": "topk"}}))
        self.probe(model.run_total("uplink_bytes"), M.DIM, 100, 10_000)


class TestExactWireFormulas:
    """The symbolic byte formulas mirror the runtime implementations."""

    def test_identity_compression_reduces_to_dense(self):
        # CompressionSpec.none() must collapse *exactly* to the
        # uncompressed expression -- same sympy expr, not just same value.
        assert sp.simplify(
            payload_bytes_expr(CompressionSpec.none()) - payload_bytes_expr(None)
        ) == 0
        assert payload_bytes_expr(None) == 8 * M.DIM
        assert keep_count_expr(CompressionSpec.none()) == M.DIM

    def test_payload_bytes_matches_runtime(self):
        specs = [
            CompressionSpec.none(),
            CompressionSpec(sparsify="topk", fraction=0.05),
            CompressionSpec(sparsify="randk", fraction=0.01),
            CompressionSpec(sparsify="topk", fraction=0.1, quantize_bits=8),
            CompressionSpec(quantize_bits=4),
        ]
        for comp in specs:
            for dim in (1, 7, 65, 4130, 19162):
                expected = comp.payload_bytes(dim)
                got = int(payload_bytes_expr(comp).subs({M.DIM: dim}))
                assert got == expected, (comp, dim)
                assert int(
                    keep_count_expr(comp).subs({M.DIM: dim})
                ) == comp.keep_count(dim)

    def test_ciphertext_bytes(self):
        assert int(ciphertext_bytes_expr().subs({M.KEY_BITS: 512})) == 128
        assert int(ciphertext_bytes_expr().subs({M.KEY_BITS: 3072})) == 768

    def test_masked_vs_paillier_24x_ratio(self):
        """docs/secure_aggregation.md: at 3072-bit keys a Paillier
        ciphertext (768 B) is 24x a 256-bit mask field element (32 B)."""
        cipher = ciphertext_bytes_expr().subs({M.KEY_BITS: 3072})
        mask = mask_bytes_expr().subs({M.MASK_BITS: 256})
        assert int(mask) == 32
        assert sp.Rational(cipher, mask) == 24


class TestModelStructure:
    def test_phase_lookup_and_constants(self):
        model = build_cost_model(
            _spec(
                {
                    "method": {"name": "secure-uldp-avg"},
                    "crypto": {"backend": "fast"},
                }
            )
        )
        assert model.backend == "fast"
        assert model.phase("keygen").per == "setup"
        # run_round refills S*d silo randomizers every round.
        assert model.phase("offline_randomizers").per == "round"
        used = {
            str(sym).removeprefix("c_")
            for ph in model.phases for metric in M.METRICS
            for sym in getattr(ph, metric).free_symbols
            if str(sym).startswith("c_")
        }
        assert "paillier_keygen" in used
        assert "masked_setup" not in used
        assert used <= set(M.CONSTANT_DEFS)

    def test_memory_totals_take_max_not_sum(self):
        model = build_cost_model(
            _spec(
                {
                    "method": {"name": "secure-uldp-avg"},
                    "crypto": {"backend": "masked"},
                }
            )
        )
        total = model.total("memory_bytes")
        parts = [
            ph.memory_bytes for ph in model.phases if ph.memory_bytes != 0
        ]
        assert len(parts) > 1
        point = {**BASE, M.PARTICIPATION: 1}
        assert float(sp.N(total.subs(point))) == max(
            float(sp.N(p.subs(point))) for p in parts
        )

    def test_simulation_memory_is_one_byte_per_user(self):
        # The simulator's population is its user mask: nothing to fit.
        model = build_cost_model(
            RunSpec.from_dict({"sim": {"scenario": "user-churn"}}))
        assert model.total("memory_bytes") == M.POPULATION

    def test_run_total_is_setup_plus_rounds_times_round(self):
        model = build_cost_model(_spec())
        lhs = model.run_total("seconds")
        rhs = model.total("seconds", "setup") + M.ROUNDS * model.total(
            "seconds", "round"
        )
        assert sp.simplify(lhs - rhs) == 0

    def test_network_phase_only_with_cost_bandwidth(self):
        plain = build_cost_model(_spec())
        assert all(ph.name != "network" for ph in plain.phases)
        wired = build_cost_model(_spec({"cost": {"bandwidth_mbps": 100.0}}))
        net = wired.phase("network")
        seconds = net.seconds.subs(
            {**BASE, M.BANDWIDTH: 100e6 / 8, M.RETRY: 0.0}
        )
        # 100 Mbit/s moving the dense round traffic: bytes / (bytes/s).
        round_bytes = (
            wired.total("uplink_bytes", "round")
            + wired.total("downlink_bytes", "round")
        ).subs(BASE)
        assert float(seconds) == pytest.approx(
            float(round_bytes) / (100e6 / 8), rel=1e-12
        )
