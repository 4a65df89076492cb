"""A small numpy neural-network substrate with manual backpropagation.

The paper's reference implementation trains PyTorch models; this package
replaces exactly the slice of functionality Uldp-FL needs:

- :mod:`repro.nn.layers` -- Linear, Conv2d, pooling, activations, Flatten.
- :mod:`repro.nn.losses` -- softmax cross-entropy, binary cross-entropy,
  Cox proportional-hazards partial likelihood (for TcgaBrca).
- :mod:`repro.nn.model` -- the :class:`Sequential` container, parameter
  flattening (FL exchanges flat parameter vectors), and the model factories
  used by the benchmarks.
- :mod:`repro.nn.optim` -- plain SGD.
- :mod:`repro.nn.train` -- mini-batch training helpers and ``accuracy_of``.
- :mod:`repro.nn.dpsgd` -- DP-SGD (per-sample clipping + Gaussian noise +
  Poisson sampling), the local subroutine of ULDP-GROUP-k.
- :mod:`repro.nn.batched` -- the one training walk of the vectorized
  multi-user engine (:mod:`repro.core.engine`): per-group gradients of a
  shared model, or one SGD step of many per-group models at once.

All randomness flows through explicit ``numpy.random.Generator`` instances
so every experiment is reproducible from a seed.
"""

from repro.nn.clip import (
    clip_factor_from_norms,
    clip_factor_rows,
    l2_clip,
    l2_clip_rows,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.losses import (
    BatchedCoxPHLoss,
    BCEWithLogitsLoss,
    CoxPHLoss,
    Loss,
    SoftmaxCrossEntropyLoss,
)
from repro.nn.model import (
    Sequential,
    build_cox_linear,
    build_creditcard_mlp,
    build_logistic,
    build_mnist_cnn,
    build_tiny_mlp,
)
from repro.nn.optim import SGD
from repro.nn.train import train_epochs
from repro.nn.dpsgd import dpsgd_train

__all__ = [
    "clip_factor_from_norms",
    "clip_factor_rows",
    "l2_clip",
    "l2_clip_rows",
    "AvgPool2d",
    "Conv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "BatchedCoxPHLoss",
    "BCEWithLogitsLoss",
    "CoxPHLoss",
    "Loss",
    "SoftmaxCrossEntropyLoss",
    "Sequential",
    "build_cox_linear",
    "build_creditcard_mlp",
    "build_logistic",
    "build_mnist_cnn",
    "build_tiny_mlp",
    "SGD",
    "train_epochs",
    "dpsgd_train",
]
