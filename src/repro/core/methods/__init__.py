"""The five federated optimisation methods evaluated in the paper."""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "FLMethod": "repro.core.methods.base",
    "Default": "repro.core.methods.fedavg",
    "UldpAvg": "repro.core.methods.uldp_avg",
    "UldpGroup": "repro.core.methods.uldp_group",
    "UldpNaive": "repro.core.methods.uldp_naive",
    "UldpSgd": "repro.core.methods.uldp_sgd",
    "build_group_flags": "repro.core.methods.uldp_group",
    "resolve_group_size": "repro.core.methods.uldp_group",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
