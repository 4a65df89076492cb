"""Networked federation runtime: server/silo processes over TCP sockets.

The package realises ``repro serve`` / ``repro silo``: the round loop of a
:class:`repro.sim.FederationSimulator` stays on the server, but each
silo's per-user training runs in a separate OS process reached over a
length-prefixed binary wire protocol.  An ideal network reproduces the
in-process simulator bit for bit; a silo that misses its deadline becomes
a real :class:`repro.core.weighting.RoundParticipation` dropout.  See
``docs/networking.md`` for the wire format, timeout semantics, fault
plans, and the crash/resume walkthrough.

Submodules (imported lazily -- the server pulls in the full API stack):

- :mod:`repro.net.wire` -- framed JSON-header + raw-ndarray messages.
- :mod:`repro.net.transport` -- retry/backoff connects, deadline recv.
- :mod:`repro.net.faults` -- deterministic fault-injection plans.
- :mod:`repro.net.server` -- the round-orchestrating federation server.
- :mod:`repro.net.silo_client` -- the stateless silo worker process.
"""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "FederationServer": "repro.net.server",
    "SiloFailure": "repro.net.transport",
    "SiloClient": "repro.net.silo_client",
    "FaultPlan": "repro.net.faults",
    "FaultEvent": "repro.net.faults",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
