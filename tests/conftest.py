"""Suite-wide test set-up.

This file's presence puts ``tests/`` on ``sys.path`` (pytest's default
``prepend`` import mode), so every sub-suite can import the two shared
helpers by name: ``from toy_crypto import TOY_DH_GROUP`` (toy security
parameters) and ``from reference_nn import reference`` (the plain
forward/backward passes, SGD and loop trainers the walk is checked
against).  It adds ``tests/accounting`` and ``tests/protocol`` too, whose
references other suites import: ``accounting_reference`` (the scalar
sub-sampled bounds, an accountant's RDP curve) and ``oracle_reference``
(the scalar fixed-point codec, Protocol 1's plaintext reference).

It also registers the hypothesis profiles: ``default`` is hypothesis's
own budget (tier-1), and ``fuzz`` raises the example budget of every
property test that does not pin its own (``tests/net/test_wire_fuzz.py``
among them).  ``HYPOTHESIS_PROFILE=fuzz python -m pytest tests/net``
selects it.  hypothesis is a test dependency only; suites that need it
import it themselves.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[1:1] = [str(HERE / "accounting"), str(HERE / "protocol")]

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - a job that runs no property test
    settings = None

if settings is not None:
    settings.register_profile("fuzz", max_examples=2000)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
