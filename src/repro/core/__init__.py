"""The Uldp-FL core: federated methods, weighting, metrics, and the trainer.

This package implements the paper's Algorithms 1-4 plus the non-private
FedAVG baseline, the clipping-weight strategies of Section 4.1, and the
training loop that produces the privacy/utility series of the evaluation.
"""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "clip_factor_rows": "repro.nn.clip",
    "l2_clip_rows": "repro.nn.clip",
    "LocalJob": "repro.core.engine",
    "batched_local_deltas": "repro.core.engine",
    "draw_minibatch_schedule": "repro.core.engine",
    "FLMethod": "repro.core.methods.base",
    "Default": "repro.core.methods.fedavg",
    "UldpAvg": "repro.core.methods.uldp_avg",
    "UldpGroup": "repro.core.methods.uldp_group",
    "UldpNaive": "repro.core.methods.uldp_naive",
    "UldpSgd": "repro.core.methods.uldp_sgd",
    "build_group_flags": "repro.core.methods.uldp_group",
    "resolve_group_size": "repro.core.methods.uldp_group",
    "evaluate_model": "repro.core.metrics",
    "make_loss": "repro.core.metrics",
    "metric_name": "repro.core.metrics",
    "CommRecord": "repro.core.trainer",
    "CommSummary": "repro.core.methods.base",
    "ParticipationRecord": "repro.core.trainer",
    "ParticipationSummary": "repro.core.methods.base",
    "RoundRecord": "repro.core.trainer",
    "RoundReport": "repro.core.methods.base",
    "Trainer": "repro.core.trainer",
    "TrainingHistory": "repro.core.trainer",
    "default_model_for": "repro.nn.model",
    "RENORMS": "repro.core.weighting",
    "RoundParticipation": "repro.core.weighting",
    "participation_weights": "repro.core.weighting",
    "proportional_weights": "repro.core.weighting",
    "realised_sensitivity": "repro.core.weighting",
    "subsample_weights": "repro.core.weighting",
    "uniform_weights": "repro.core.weighting",
    "validate_weights": "repro.core.weighting",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
