"""The Uldp-FL core: federated methods, weighting, metrics, and the trainer.

This package implements the paper's Algorithms 1-4 plus the non-private
FedAVG baseline, the clipping-weight strategies of Section 4.1, and the
training loop that produces the privacy/utility series of the evaluation.
"""

from repro.nn.clip import clip_factor_rows, l2_clip, l2_clip_rows
from repro.core.engine import (
    LocalJob,
    batched_local_deltas,
    draw_minibatch_schedule,
)
from repro.core.methods import (
    Default,
    FLMethod,
    UldpAvg,
    UldpGroup,
    UldpNaive,
    UldpSgd,
    build_group_flags,
    resolve_group_size,
)
from repro.core.methods.base import CommSummary, ParticipationSummary
from repro.core.metrics import evaluate_model, make_loss, metric_name
from repro.core.trainer import (
    CommRecord,
    ParticipationRecord,
    RoundRecord,
    Trainer,
    TrainingHistory,
    default_model_for,
)
from repro.core.weighting import (
    RENORMS,
    RoundParticipation,
    participation_weights,
    proportional_weights,
    realised_sensitivity,
    subsample_weights,
    uniform_weights,
    validate_weights,
)

__all__ = [
    "clip_factor_rows",
    "l2_clip",
    "l2_clip_rows",
    "LocalJob",
    "batched_local_deltas",
    "draw_minibatch_schedule",
    "FLMethod",
    "Default",
    "UldpAvg",
    "UldpGroup",
    "UldpNaive",
    "UldpSgd",
    "build_group_flags",
    "resolve_group_size",
    "evaluate_model",
    "make_loss",
    "metric_name",
    "CommRecord",
    "CommSummary",
    "ParticipationRecord",
    "ParticipationSummary",
    "RoundRecord",
    "Trainer",
    "TrainingHistory",
    "default_model_for",
    "RENORMS",
    "RoundParticipation",
    "participation_weights",
    "proportional_weights",
    "realised_sensitivity",
    "subsample_weights",
    "uniform_weights",
    "validate_weights",
]
