"""A silo's replica is the server's.

``repro silo`` builds no simulator: :class:`SiloClient` binds its method
through :func:`repro.sim.scenarios.bind_scenario`, the function the
server's :func:`build_simulator` builds through.  So for every silo and
release the replica's :meth:`silo_payload` gives the server's users and
the server's payload bits, and the replica holds none of the server's
state (weights, accountant, compressor).
"""

import pathlib

import numpy as np
import pytest
from test_networked_run import base_tree

from repro.api import RunSpec, build_simulator
from repro.core.methods.uldp_avg import SYNC_ROUND
from repro.net.silo_client import SiloClient

SPECS = {
    "net_sim.toml": RunSpec.from_file(
        pathlib.Path(__file__).resolve().parents[2] / "examples/specs/net_sim.toml"),
    "flaky-silos": RunSpec.from_dict(
        {**base_tree(), "sim": {"scenario": "flaky-silos", "scale": "smoke"}}),
    "sample_rate=0.5": RunSpec.from_dict(
        {**base_tree(), "method": {"name": "uldp-avg-w", "sample_rate": 0.5}}),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_silo_payload_equals_the_servers(name):
    spec = SPECS[name]
    server = build_simulator(spec).method
    params = server.model.get_flat_params()
    for s in range(server.fed.n_silos):
        replica = SiloClient(spec, s, port=1).method
        assert replica.weights is None  # the server's state is not built
        assert replica.accountant is None and replica.compressor is None
        for t in range(2):
            release = (SYNC_ROUND, t)
            row = server.weights[s]
            users, payload = replica.silo_payload(
                s, params, row, 0.5, release=release)
            want_users, want = server.silo_payload(
                s, params, row, 0.5, release=release)
            assert users == want_users and users
            assert np.array_equal(payload, want)
