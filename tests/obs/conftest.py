"""Shared isolation for the observability tests.

The trace recorder is a process-wide singleton; every test here starts
from the no-op recorder so ordering between tests (and between this
suite and the instrumented integration tests) cannot leak state.
"""

import pytest

from repro.obs.trace import set_recorder


@pytest.fixture(autouse=True)
def _clean_obs_state():
    set_recorder(None)
    yield
    set_recorder(None)
