"""Invariants of the cost model (repro.cost.model), evaluated on numbers.

These pin the *structure* of the cost functions: monotonicity in the
workload numbers, exact agreement of the wire-byte metrics with the
runtime implementations they call, and the documented masked-vs-
Paillier payload ratio.
"""

from dataclasses import asdict

import pytest

from repro.api.spec import RunSpec
from repro.compress import CompressionSpec
from repro.cost import model as M
from repro.cost.calibrate import load_calibration
from repro.cost.model import MASK_BYTES, build_cost_model, ciphertext_bytes
from repro.crypto import secagg
from repro.cost.planner import _evaluate, _run_totals, _totals, predict

#: Baseline numeric point every monotonicity probe perturbs.
BASE = {
    "users": 100,
    "silos": 5,
    "dim": 4130,
    "records_per_user": 40,
    "epochs": 2,
    "features": 30,
    "rounds": 5,
    "key_bits": 512,
    "population": 100,
    "participation": 1.0,
}

CONSTANTS = load_calibration().constants


def _spec(tree=None) -> RunSpec:
    base = {"dataset": {"users": 100, "silos": 5, "records": 4000}}
    base.update(tree or {})
    return RunSpec.from_dict(base)


def _values(model, w, metric):
    """``(per, value)`` of ``metric`` for every phase at workload ``w``."""
    return [(per, values[metric]) for _, per, values in _evaluate(model, w, CONSTANTS)]


def _total(model, w, metric, per=None):
    return _totals(_evaluate(model, w, CONSTANTS), per)[metric]


def _run_total(model, w, metric):
    return _run_totals(_evaluate(model, w, CONSTANTS), w["rounds"])[metric]


class TestMonotonicity:
    """More work can never be predicted cheaper."""

    def probe(self, spec, name, lo, hi, metric="seconds"):
        model = build_cost_model(spec)
        a = _run_total(model, {**BASE, name: lo}, metric)
        b = _run_total(model, {**BASE, name: hi}, metric)
        assert 0 < a < b, f"{name}: {a} !< {b}"

    def test_seconds_monotone_in_users(self):
        self.probe(_spec(), "users", 100, 1000)

    def test_seconds_monotone_in_dim(self):
        self.probe(_spec(), "dim", 100, 10_000)

    def test_secure_monotone_in_silos(self):
        # both backends do per-silo crypto work
        for backend in ("fast", "masked"):
            spec = _spec(
                {
                    "method": {"name": "secure-uldp-avg"},
                    "crypto": {"backend": backend},
                }
            )
            self.probe(spec, "silos", 5, 50)

    def test_secure_seconds_monotone_in_key_bits(self):
        spec = _spec(
            {
                "method": {"name": "secure-uldp-avg"},
                "crypto": {"backend": "fast"},
            }
        )
        self.probe(spec, "key_bits", 512, 3072)

    def test_uplink_monotone_in_dim(self):
        spec = _spec({"compression": {"sparsify": "topk"}})
        self.probe(spec, "dim", 100, 10_000, metric="uplink_bytes")


class TestExactWireFormulas:
    """The byte metrics are the runtime's own formulas."""

    def uplink_per_silo(self, comp, dim, method="uldp-avg-w"):
        tree = {"method": {"name": method}}
        if comp is not None:
            tree["compression"] = asdict(comp)
        model = build_cost_model(_spec(tree))
        w = {**BASE, "dim": dim, "silos": 1}
        return _total(model, w, "uplink_bytes", "round")

    def test_identity_compression_reduces_to_dense(self):
        # ULDP-AVG-w's dense release is float32.
        for dim in (1, 7, 4130):
            assert self.uplink_per_silo(CompressionSpec.none(), dim) == 4 * dim
            assert self.uplink_per_silo(None, dim) == 4 * dim

    def test_dense_uplink_is_the_methods_payload(self):
        """The ULDP-AVG family ships float32 releases; the methods that
        form their aggregate from no payload array are charged float64."""
        widths = {"uldp-avg": 4, "uldp-sgd-w": 4, "uldp-naive": 8,
                  "uldp-group": 8, "default": 8}
        for method, width in widths.items():
            assert self.uplink_per_silo(None, 65, method) == width * 65, method

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
                # An identity spec changes no payload: the dense release.
                want = 4 * dim if comp.is_identity else comp.payload_bytes(dim)
                assert self.uplink_per_silo(comp, dim) == want, (comp, dim)

    def test_secure_ciphertext_count_is_keep_count(self):
        comp = CompressionSpec(sparsify="randk", fraction=0.1)
        model = build_cost_model(
            _spec(
                {
                    "method": {"name": "secure-uldp-avg"},
                    "crypto": {"backend": "fast"},
                    "compression": asdict(comp),
                }
            )
        )
        for dim in (7, 4130, 19162):
            w = {**BASE, "dim": dim}
            assert _total(model, w, "cipher_elements") == 5 * comp.keep_count(dim)

    def test_ciphertext_bytes(self):
        assert ciphertext_bytes(512) == 128
        assert ciphertext_bytes(3072) == 768

    def test_masked_vs_paillier_96x_ratio(self):
        """docs/protocol_performance.md: at 3072-bit keys a Paillier
        ciphertext (768 B) is 96x a masked coordinate, one element of
        Z_{2^64} (8 B) -- the runtime's width."""
        assert MASK_BYTES == secagg.MASK_BYTES == 8
        assert ciphertext_bytes(3072) == 96 * MASK_BYTES


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
        phases = {ph.name: ph for ph in model.phases(BASE)}
        assert phases["keygen"].per == "setup"
        # run_round refills S*d silo randomizers every round.
        assert phases["offline_randomizers"].per == "round"
        used = {
            name
            for ph in phases.values()
            for metric in M.METRICS
            for name in getattr(ph, metric).coef
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
        parts = [v for _, v in _values(model, BASE, "memory_bytes") if v != 0]
        assert len(parts) > 1
        assert _total(model, BASE, "memory_bytes") == max(parts)
        assert _run_total(model, BASE, "memory_bytes") == max(parts)

    def test_simulation_memory_is_one_byte_per_user(self):
        # The simulator's population is its user mask: nothing to fit.
        model = build_cost_model(
            RunSpec.from_dict({"sim": {"scenario": "user-churn"}}))
        for population in (1, 100, 10**6):
            w = {**BASE, "population": population}
            assert _total(model, w, "memory_bytes") == population
        assert not any(ph.memory_bytes.coef for ph in model.phases(BASE))

    def test_run_total_is_setup_plus_rounds_times_round(self):
        for spec in (
            _spec(),
            _spec({"method": {"name": "secure-uldp-avg"}, "crypto": {"backend": "fast"}}),
        ):
            report = predict(spec)
            for metric in ("seconds", "uplink_bytes", "downlink_bytes", "cipher_elements"):
                expected = (
                    report.setup_totals[metric]
                    + report.rounds * report.round_totals[metric]
                )
                assert report.run_totals[metric] == pytest.approx(expected, rel=1e-12)

    def test_network_phase_only_with_cost_bandwidth(self):
        plain = build_cost_model(_spec())
        assert all(ph.name != "network" for ph in plain.phases(BASE))
        wired = build_cost_model(_spec({"cost": {"bandwidth_mbps": 100.0}}))
        w = {**BASE, "bandwidth": 100e6 / 8, "retry": 0.0}
        (net,) = [ph for ph in wired.phases(w) if ph.name == "network"]
        # 100 Mbit/s moving the dense round traffic: bytes / (bytes/s).
        round_bytes = _total(wired, w, "uplink_bytes", "round") + _total(
            wired, w, "downlink_bytes", "round"
        )
        assert net.seconds.value(CONSTANTS) == pytest.approx(
            round_bytes / (100e6 / 8), rel=1e-12
        )
