"""Toy security parameters for protocol-level tests -- the one shared helper.

The runtime's only Diffie-Hellman group is RFC 3526 group 14: both protocol
classes and ``SecureUldpAvg`` fall back to it, and no spec field selects
another.  A 2048-bit key agreement per constructed protocol is fine for a
run (~50 ms at 3-4 silos) but not for property tests that build a 4-5 silo
protocol per example, so every test that constructs
``PrivateWeightingProtocol``, ``MaskedAggregationProtocol``, the reference
oracle or ``SecureUldpAvg`` *directly* passes this group, by name, at the
call site (``dh_group=TOY_DH_GROUP`` / ``group=TOY_DH_GROUP``).  It is
deliberately not an autouse fixture: a reader of the test must see that
the size is a toy.  Spec-level tests (``build_trainer`` / ``run`` / the
CLI) cannot pass a group and run the real one.
"""

from repro.crypto.dh import DHGroup

#: 512-bit safe-prime group (``DHGroup.test_group()``); NOT for production.
TOY_DH_GROUP = DHGroup.test_group()
