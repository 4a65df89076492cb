"""A small numpy neural-network substrate with manual backpropagation.

The paper's reference implementation trains PyTorch models; this package
replaces exactly the slice of functionality Uldp-FL needs:

- :mod:`repro.nn.layers` -- Linear, Conv2d, pooling, activations, Flatten.
- :mod:`repro.nn.losses` -- softmax cross-entropy, binary cross-entropy,
  Cox proportional-hazards partial likelihood (for TcgaBrca).
- :mod:`repro.nn.model` -- the :class:`Sequential` container, parameter
  flattening (FL exchanges flat parameter vectors), and the model factories
  used by the benchmarks.
- :mod:`repro.nn.dpsgd` -- DP-SGD (per-sample clipping + Gaussian noise +
  Poisson sampling), the local subroutine of ULDP-GROUP-k.
- :mod:`repro.nn.batched` -- the one way to compute: the training walk of
  the vectorized multi-user engine (:mod:`repro.core.engine`), per-group
  gradients of a shared model, per-group SGD steps, or the forward alone.
  Layers are structure; the plain passes, SGD and loop trainers the walk
  is checked against are the tests' (``tests/reference_nn.py``).

All randomness flows through explicit ``numpy.random.Generator`` instances
so every experiment is reproducible from a seed.
"""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "clip_factor_from_norms": "repro.nn.clip",
    "clip_factor_rows": "repro.nn.clip",
    "l2_clip_rows": "repro.nn.clip",
    "AvgPool2d": "repro.nn.layers",
    "Conv2d": "repro.nn.layers",
    "Flatten": "repro.nn.layers",
    "Linear": "repro.nn.layers",
    "MaxPool2d": "repro.nn.layers",
    "ReLU": "repro.nn.layers",
    "Tanh": "repro.nn.layers",
    "BatchedCoxPHLoss": "repro.nn.losses",
    "BCEWithLogitsLoss": "repro.nn.losses",
    "CoxPHLoss": "repro.nn.losses",
    "Loss": "repro.nn.losses",
    "SoftmaxCrossEntropyLoss": "repro.nn.losses",
    "Sequential": "repro.nn.model",
    "build_cox_linear": "repro.nn.model",
    "build_creditcard_mlp": "repro.nn.model",
    "build_logistic": "repro.nn.model",
    "build_mnist_cnn": "repro.nn.model",
    "build_tiny_mlp": "repro.nn.model",
    "dpsgd_train": "repro.nn.dpsgd",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
