"""Protocol 1: the private weighting protocol of Section 4.

:mod:`~repro.protocol.driver` runs message schedules between in-process
parties, logging every frame and timing each phase;
:mod:`~repro.protocol.parties` holds the silo and server roles and
:mod:`~repro.protocol.runner` Protocol 1's schedules;
:mod:`~repro.protocol.oblivious` is the Section 4.1 OT sub-sampling, and
:mod:`~repro.protocol.secure_method` is :class:`SecureUldpAvg`, ULDP-AVG-w
aggregating through the real protocol.
"""

from repro import _lazy_namespace

# Lazy: repro.crypto.secagg imports the driver from here.
_LAZY_EXPORTS = {
    "OTReceiver": "repro.protocol.oblivious",
    "OTSender": "repro.protocol.oblivious",
    "PrivateSubsampler": "repro.protocol.oblivious",
    "transfer": "repro.protocol.oblivious",
    "Driver": "repro.protocol.driver",
    "ServerParty": "repro.protocol.parties",
    "SiloParty": "repro.protocol.parties",
    "PrivateWeightingProtocol": "repro.protocol.runner",
    "SecureUldpAvg": "repro.protocol.secure_method",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
