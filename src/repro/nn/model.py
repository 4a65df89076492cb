"""Model container, parameter flattening, and benchmark model factories.

Federated learning exchanges *flat parameter vectors*; the
:class:`Sequential` container therefore provides ``get_flat_params`` /
``set_flat_params`` along with clone and dtype-cast support.  A model
computes only through the walk (:mod:`repro.nn.batched`).

Factories reproduce the paper's model sizes:

- :func:`build_creditcard_mlp` -- MLP with ~4K parameters (Section 5.1).
- :func:`build_mnist_cnn` -- CNN with ~20K parameters.
- :func:`build_logistic` -- logistic model (< 100 params, HeartDisease).
- :func:`build_cox_linear` -- linear Cox risk model (< 100 params, TcgaBrca).
- :func:`default_model_for` -- which of them a benchmark dataset trains.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.layers import Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU


class Sequential:
    """A feed-forward stack of layers with flat-parameter accessors."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params)

    def get_flat_params(self) -> np.ndarray:
        """Concatenate all parameters into one vector of their dtype (copy)."""
        if not self.params:
            return np.zeros(0)
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (in-place, preserves views),
        rounded to the parameters' dtype."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {flat.size}"
            )
        offset = 0
        for p in self.params:
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def architecture(self) -> tuple:
        """What the stack computes, without its values: per layer the type,
        the scalar settings and the parameter shapes.  Models of equal
        architecture are interchangeable wherever only the structure is
        read -- as the engine's templates, whose values always come from
        the round's flat parameter vector."""
        return tuple(
            (
                type(layer).__name__,
                tuple(p.shape for p in layer.params),
                tuple(sorted(
                    (name, value) for name, value in vars(layer).items()
                    if isinstance(value, (bool, int, float, str))
                )),
            )
            for layer in self.layers
        )

    def clone(self) -> "Sequential":
        """Deep copy: independent parameters."""
        return copy.deepcopy(self)

    def astype(self, dtype) -> "Sequential":
        """A :meth:`clone` whose parameters are ``dtype``."""
        local = self.clone()
        for layer in local.layers:
            if layer.params:
                layer.params = [p.astype(dtype) for p in layer.params]
                layer.weight, layer.bias = layer.params
        return local


def build_tiny_mlp(
    in_features: int, hidden: int, out_features: int, rng: np.random.Generator
) -> Sequential:
    """Small two-layer MLP, the workhorse for fast unit tests."""
    return Sequential(
        [
            Linear(in_features, hidden, rng),
            ReLU(),
            Linear(hidden, out_features, rng),
        ]
    )


def build_creditcard_mlp(rng: np.random.Generator, in_features: int = 30) -> Sequential:
    """MLP for the Creditcard task (~4K parameters, two logits out)."""
    return Sequential(
        [
            Linear(in_features, 64, rng),
            ReLU(),
            Linear(64, 32, rng),
            ReLU(),
            Linear(32, 2, rng),
        ]
    )


def build_mnist_cnn(rng: np.random.Generator, image_size: int = 14, n_classes: int = 10) -> Sequential:
    """CNN for the MNIST-like task (~20K parameters at the default size)."""
    after_pool = image_size // 2 // 2
    flat = 32 * after_pool * after_pool
    return Sequential(
        [
            Conv2d(1, 16, 3, rng, padding=1),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 32, 3, rng, padding=1),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(flat, 48, rng),
            ReLU(),
            Linear(48, n_classes, rng),
        ]
    )


def build_logistic(rng: np.random.Generator, in_features: int = 13) -> Sequential:
    """Logistic model for HeartDisease (single logit output)."""
    return Sequential([Linear(in_features, 1, rng)])


def build_cox_linear(rng: np.random.Generator, in_features: int = 39) -> Sequential:
    """Linear Cox risk-score model for TcgaBrca (single score output)."""
    return Sequential([Linear(in_features, 1, rng)])


def default_model_for(fed, rng: np.random.Generator) -> Sequential:
    """The paper's model for each benchmark dataset (by shape/task)."""
    if fed.test_x.ndim == 4:
        return build_mnist_cnn(rng, image_size=fed.test_x.shape[-1])
    n_features = fed.test_x.shape[1]
    if fed.task == "survival":
        return build_cox_linear(rng, in_features=n_features)
    if n_features <= 15:
        return build_logistic(rng, in_features=n_features)
    return build_creditcard_mlp(rng, in_features=n_features)
