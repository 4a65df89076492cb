"""Federation simulation runtime (partial participation at scale).

The paper's algorithms assume the idealised cross-silo setting: every silo
and every user participates in every round, synchronously, with no
failures.  This package simulates the deployments the guarantees must
survive:

- :mod:`repro.sim.participation` -- per-round silo dropout, straggler
  latency models, and user churn over one activity flag per user.
- :mod:`repro.sim.policies` -- aggregation policies: synchronous (the
  oracle), semi-synchronous with a deadline, and buffered-async
  (FedBuff-style staleness-weighted merging), with explicit weight
  renormalisation strategies and honest sensitivity bookkeeping.
- :mod:`repro.sim.scheduler` -- the event-driven round scheduler driving
  the :class:`repro.core.Trainer` step API.
- :mod:`repro.sim.checkpoint` -- bit-identical checkpoint/resume of model
  params, RNG states, accountant state, and history.
- :mod:`repro.sim.scenarios` -- the named scenario registry behind a
  spec's ``[sim]`` table (``python -m repro scenarios`` lists it).
"""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "CheckpointError": "repro.sim.checkpoint",
    "load_checkpoint": "repro.sim.checkpoint",
    "save_checkpoint": "repro.sim.checkpoint",
    "BandwidthModel": "repro.sim.participation",
    "ChurnProcess": "repro.sim.participation",
    "IidSiloDropout": "repro.sim.participation",
    "LogNormalLatency": "repro.sim.participation",
    "NoDropout": "repro.sim.participation",
    "NoLatency": "repro.sim.participation",
    "SiloOutageWindows": "repro.sim.participation",
    "BufferedAsyncPolicy": "repro.sim.policies",
    "SemiSyncPolicy": "repro.sim.policies",
    "SyncPolicy": "repro.sim.policies",
    "staleness_weight": "repro.sim.policies",
    "FederationSimulator": "repro.sim.scheduler",
    "SimConfig": "repro.sim.scheduler",
    "available_scenarios": "repro.sim.scenarios",
    "describe_scenario": "repro.sim.scenarios",
    "resume_simulator": "repro.sim.scenarios",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
