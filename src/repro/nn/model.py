"""Model container, parameter flattening, and benchmark model factories.

Federated learning exchanges *flat parameter vectors*; the
:class:`Sequential` container therefore provides ``get_flat_params`` /
``set_flat_params`` / ``get_flat_grads`` along with clone support so each
(user, silo) local optimisation can start from the global parameters
without re-allocating layer structure.

Factories reproduce the paper's model sizes:

- :func:`build_creditcard_mlp` -- MLP with ~4K parameters (Section 5.1).
- :func:`build_mnist_cnn` -- CNN with ~20K parameters.
- :func:`build_logistic` -- logistic model (< 100 params, HeartDisease).
- :func:`build_cox_linear` -- linear Cox risk model (< 100 params, TcgaBrca).
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

from repro.nn.layers import (
    AvgPool2d,
    BatchedConv2d,
    BatchedFlatten,
    BatchedLinear,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)


class Sequential:
    """A feed-forward stack of layers with flat-parameter accessors."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

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

    def get_flat_grads(self) -> np.ndarray:
        if not self.grads:
            return np.zeros(0)
        return np.concatenate([g.ravel() for g in self.grads])

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
        """Deep copy: independent parameters and gradients, no forward
        caches (:meth:`repro.nn.layers.Layer.__getstate__`)."""
        return copy.deepcopy(self)

    def astype(self, dtype) -> "Sequential":
        """A :meth:`clone` whose parameters and gradients are ``dtype``."""
        local = self.clone()
        for layer in local.layers:
            if layer.params:
                layer.params = [p.astype(dtype) for p in layer.params]
                layer.grads = [g.astype(dtype) for g in layer.grads]
                layer.weight, layer.bias = layer.params
        return local


class BatchedSequential(Sequential):
    """``G`` independent copies of a :class:`Sequential`, trained in lockstep.

    Every parameterised layer carries a leading group axis, so one
    forward/backward moves all ``G`` models at once -- the substrate of the
    vectorized multi-user engine (:mod:`repro.core.engine`).  The flat
    parameter interface becomes matrix-valued: ``get_flat_params`` returns a
    ``(G, P)`` matrix whose row ``g`` uses exactly the same layout as the
    template model's flat vector, and ``set_flat_params`` accepts either a
    ``(P,)`` vector (broadcast to every group -- "all users start from the
    global model") or a ``(G, P)`` matrix.
    """

    def __init__(self, layers: list[Layer], groups: int):
        super().__init__(layers)
        if groups < 1:
            raise ValueError("need at least one group")
        self.groups = groups

    @property
    def num_params(self) -> int:
        """Per-group parameter count (matches the template model's)."""
        return sum(p[0].size for p in self.params)

    def get_flat_params(self) -> np.ndarray:
        """Per-group flat parameters as a ``(G, P)`` matrix (copy)."""
        if not self.params:
            return np.zeros((self.groups, 0))
        return np.concatenate([p.reshape(self.groups, -1) for p in self.params], axis=1)

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameters from a ``(P,)`` vector (broadcast) or ``(G, P)`` matrix."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1:
            # Broadcast-on-write: every group gets the same global vector
            # without materialising a (G, P) intermediate.
            if flat.size != self.num_params:
                raise ValueError(
                    f"expected {self.num_params} parameters, got {flat.size}"
                )
            offset = 0
            for p in self.params:
                size = p[0].size
                p[...] = flat[offset : offset + size].reshape(p.shape[1:])
                offset += size
            return
        if flat.shape != (self.groups, self.num_params):
            raise ValueError(
                f"expected ({self.groups}, {self.num_params}) parameters, "
                f"got {flat.shape}"
            )
        offset = 0
        for p in self.params:
            size = p[0].size
            p[...] = flat[:, offset : offset + size].reshape(p.shape)
            offset += size

    def get_flat_grads(self) -> np.ndarray:
        """Per-group flat gradients as a ``(G, P)`` matrix."""
        if not self.grads:
            return np.zeros((self.groups, 0))
        return np.concatenate([g.reshape(self.groups, -1) for g in self.grads], axis=1)


#: Groups in the one reusable replica a template gets: the widest bucket
#: the multi-user engine forms (its ``MICRO_BATCH``).
REPLICA_GROUPS = 128

#: Per template (weakly keyed): its :data:`REPLICA_GROUPS`-group replica
#: under that key, plus the ``[:G]`` heads handed out so far.  The engine
#: asks for a different group count with every bucket; rebuilding would
#: re-allocate and zero 2 x G x P floats each time, so the parameter and
#: gradient storage exists once and a head is four views per layer.
_REPLICAS: "weakref.WeakKeyDictionary[Sequential, dict[int, BatchedSequential]]" = (
    weakref.WeakKeyDictionary()
)


def _head(full: BatchedSequential, groups: int) -> BatchedSequential:
    """The leading ``groups`` models of ``full`` as a replica of their own,
    on ``full``'s storage (stateless layers are shared outright)."""
    layers: list[Layer] = []
    for layer in full.layers:
        if layer.params:
            view = copy.copy(layer)
            view.params = [p[:groups] for p in layer.params]
            view.grads = [g[:groups] for g in layer.grads]
            view.weight, view.bias = view.params
            layers.append(view)
        else:
            layers.append(layer)
    return BatchedSequential(layers, groups)


def batch_model(
    template: Sequential, groups: int, reuse: bool = False
) -> BatchedSequential:
    """Replicate ``template`` into a :class:`BatchedSequential` of ``groups`` copies.

    Parameterised layers become their ``Batched*`` counterparts (allocated
    as zeros -- load them with ``set_flat_params``); stateless layers are
    recreated fresh.  The per-group flat parameter layout matches the
    template's, so global parameter vectors move between the two unchanged.

    With ``reuse=True`` (and at most :data:`REPLICA_GROUPS` groups) the
    result is a leading-axis view of the template's one resident replica:
    every such replica of a template shares storage, only one may be in
    use at a time, and it arrives with *stale parameters and gradients* --
    load parameters before use (the engine always does).
    """
    if reuse and groups <= REPLICA_GROUPS:
        heads = _REPLICAS.get(template)
        if heads is None:
            heads = _REPLICAS[template] = {
                REPLICA_GROUPS: batch_model(template, REPLICA_GROUPS)
            }
        head = heads.get(groups)
        if head is None:
            head = heads[groups] = _head(heads[REPLICA_GROUPS], groups)
        return head
    layers: list[Layer] = []
    for layer in template.layers:
        if isinstance(layer, Linear):
            layers.append(
                BatchedLinear(layer.weight.shape[0], layer.weight.shape[1], groups)
            )
        elif isinstance(layer, Conv2d):
            layers.append(
                BatchedConv2d(
                    layer.weight.shape[1],
                    layer.weight.shape[0],
                    layer.kernel_size,
                    groups,
                    stride=layer.stride,
                    padding=layer.padding,
                )
            )
        elif isinstance(layer, Flatten):
            layers.append(BatchedFlatten())
        elif isinstance(layer, ReLU):
            layers.append(ReLU())
        elif isinstance(layer, Tanh):
            layers.append(Tanh())
        elif isinstance(layer, MaxPool2d):
            layers.append(MaxPool2d(layer.size))
        elif isinstance(layer, AvgPool2d):
            layers.append(AvgPool2d(layer.size))
        else:
            raise TypeError(
                f"no batched counterpart for layer {type(layer).__name__}"
            )
    if layers and isinstance(layers[0], (BatchedLinear, BatchedConv2d)):
        # Nothing consumes the input gradient of the first layer.
        layers[0].skip_input_grad = True
    return BatchedSequential(layers, groups)


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
