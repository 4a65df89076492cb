"""Federation simulation runtime (partial participation at scale).

The paper's algorithms assume the idealised cross-silo setting: every silo
and every user participates in every round, synchronously, with no
failures.  This package simulates the deployments the guarantees must
survive:

- :mod:`repro.sim.population` -- sharded, lazily-materialised user
  populations (memory-mapped allocation arrays; millions of users) with
  arrival/departure churn.
- :mod:`repro.sim.participation` -- per-round silo dropout, straggler
  latency models, and user churn processes.
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

from repro.sim.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.sim.participation import (
    BandwidthModel,
    ChurnProcess,
    IidSiloDropout,
    LogNormalLatency,
    NoDropout,
    NoLatency,
    SiloOutageWindows,
)
from repro.sim.policies import (
    BufferedAsyncPolicy,
    SemiSyncPolicy,
    SyncPolicy,
    staleness_weight,
)
from repro.sim.population import ShardedUserPopulation
from repro.sim.scheduler import FederationSimulator, SimConfig
from repro.sim.scenarios import (
    available_scenarios,
    build_scenario,
    continue_simulation,
    describe_scenario,
    resume_simulator,
    run_scenario,
)

__all__ = [
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "BandwidthModel",
    "ChurnProcess",
    "IidSiloDropout",
    "LogNormalLatency",
    "NoDropout",
    "NoLatency",
    "SiloOutageWindows",
    "BufferedAsyncPolicy",
    "SemiSyncPolicy",
    "SyncPolicy",
    "staleness_weight",
    "ShardedUserPopulation",
    "FederationSimulator",
    "SimConfig",
    "available_scenarios",
    "build_scenario",
    "continue_simulation",
    "describe_scenario",
    "resume_simulator",
    "run_scenario",
]
