"""Builtin registry entries: the paper's methods, datasets, and models.

Importing this module (which :mod:`repro.api` does lazily) populates the
:mod:`repro.api.registries` tables with every builtin the CLI used to
hardcode.  Third-party extensions register the same way from their own
modules -- see ``docs/api.md`` for the extension guide.

Factory contracts:

- method: ``factory(spec: MethodSpec, crypto: CryptoSpec | None) -> FLMethod``.
  Factories only forward the fields the method consumes, so unrelated
  spec fields never perturb a method's defaults.
- dataset: ``factory(spec: DatasetSpec, seed: int) -> FederatedDataset``.
- model: ``factory(rng, fed) -> Sequential``.
"""

from __future__ import annotations

from repro.api.registries import (
    register_dataset,
    register_method,
    register_model,
)
from repro.api.spec import CryptoSpec, DatasetSpec, MethodSpec


def _subsampling(spec: MethodSpec) -> float | None:
    """``sample_rate`` normalised: q = 1 means "no per-round Poisson draw"."""
    if spec.sample_rate is None or spec.sample_rate == 1.0:
        return None
    return spec.sample_rate


def _optional(spec: MethodSpec, **names) -> dict:
    """Constructor kwargs for optional fields, included only when set."""
    return {
        ctor_name: getattr(spec, field)
        for ctor_name, field in names.items()
        if getattr(spec, field) is not None
    }


@register_method("default", description="non-private FedAVG baseline (no DP noise)")
def _build_default(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.fedavg import Default

    return Default(
        local_lr=spec.local_lr,
        local_epochs=spec.local_epochs,
        **_optional(spec, global_lr="global_lr", batch_size="batch_size"),
    )


@register_method("uldp-naive", description="per-silo DP, naive cross-silo composition")
def _build_uldp_naive(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_naive import UldpNaive

    return UldpNaive(
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        local_lr=spec.local_lr,
        local_epochs=spec.local_epochs,
        **_optional(spec, global_lr="global_lr", batch_size="batch_size"),
    )


@register_method("uldp-group", description="group-privacy DP-SGD (group size k)")
def _build_uldp_group(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_group import UldpGroup

    return UldpGroup(
        group_size=spec.group_size,
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        local_lr=spec.local_lr,
        local_steps=spec.local_epochs,
        # batch_size feeds ULDP-GROUP's expected (Poisson) batch size,
        # defaulting to 256.
        expected_batch_size=spec.batch_size or 256,
        group_route=spec.group_route,
        **_optional(spec, global_lr="global_lr"),
    )


@register_method("uldp-sgd", description="ULDP-SGD, uniform clipping weights")
def _build_uldp_sgd(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_sgd import UldpSgd

    return UldpSgd(
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        weighting="uniform",
        user_sample_rate=_subsampling(spec),
        **_optional(spec, global_lr="global_lr"),
    )


@register_method("uldp-sgd-w", description="ULDP-SGD, enhanced (Eq. 3) weights")
def _build_uldp_sgd_w(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_sgd import UldpSgd

    return UldpSgd(
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        weighting="proportional",
        user_sample_rate=_subsampling(spec),
        **_optional(spec, global_lr="global_lr"),
    )


def _uldp_avg_kwargs(spec: MethodSpec, weighting: str) -> dict:
    return dict(
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        local_lr=spec.local_lr,
        local_epochs=spec.local_epochs,
        weighting=weighting,
        user_sample_rate=_subsampling(spec),
        batch_size=spec.batch_size,
        **_optional(spec, global_lr="global_lr"),
    )


@register_method("uldp-avg", description="ULDP-AVG (Algorithm 3), uniform weights")
def _build_uldp_avg(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_avg import UldpAvg

    return UldpAvg(**_uldp_avg_kwargs(spec, "uniform"))


@register_method(
    "uldp-avg-w", description="ULDP-AVG with enhanced (Eq. 3) weighting"
)
def _build_uldp_avg_w(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.core.methods.uldp_avg import UldpAvg

    return UldpAvg(**_uldp_avg_kwargs(spec, "proportional"))


@register_method(
    "secure-uldp-avg",
    description="ULDP-AVG-w over Protocol 1 (Paillier secure weighting); "
    "configured by the [crypto] section",
)
def _build_secure_uldp_avg(spec: MethodSpec, crypto: CryptoSpec | None = None):
    from repro.protocol.secure_method import SecureUldpAvg

    crypto = crypto if crypto is not None else CryptoSpec()
    return SecureUldpAvg(
        clip=spec.clip,
        noise_multiplier=spec.sigma,
        local_lr=spec.local_lr,
        local_epochs=spec.local_epochs,
        user_sample_rate=_subsampling(spec),
        batch_size=spec.batch_size,
        n_max=crypto.n_max,
        paillier_bits=crypto.paillier_bits,
        crypto_backend=crypto.backend,
        protocol_workers=crypto.workers,
        min_survivors=crypto.min_survivors,
        **_optional(spec, global_lr="global_lr"),
    )


# -- datasets -----------------------------------------------------------------


def _sizing(spec: DatasetSpec) -> dict:
    kwargs = dict(n_users=spec.users, distribution=spec.distribution)
    if spec.test_records is not None:
        kwargs["n_test"] = spec.test_records
    return kwargs


@register_dataset(
    "creditcard", description="tabular fraud detection, 5 silos, MLP (~4K params)"
)
def _build_creditcard(spec: DatasetSpec, seed: int):
    from repro.data import build_creditcard_benchmark

    return build_creditcard_benchmark(
        n_silos=spec.silos, n_records=spec.records, seed=seed, **_sizing(spec)
    )


@register_dataset("mnist", description="10-class images, 5 silos, CNN (~20K params)")
def _build_mnist(spec: DatasetSpec, seed: int):
    from repro.data import build_mnist_benchmark

    return build_mnist_benchmark(
        n_silos=spec.silos,
        n_records=spec.records,
        non_iid=spec.non_iid,
        seed=seed,
        **_sizing(spec),
    )


@register_dataset(
    "heartdisease",
    description="4 fixed hospital silos, logistic model",
    fixed_silos=True,
)
def _build_heartdisease(spec: DatasetSpec, seed: int):
    from repro.data import build_heartdisease_benchmark

    # Fixed-silo benchmark: silos/records/test_records are part of the
    # benchmark definition and deliberately not forwarded.
    return build_heartdisease_benchmark(
        n_users=spec.users, distribution=spec.distribution, seed=seed
    )


@register_dataset(
    "tcgabrca",
    description="6 fixed silos, survival data, Cox model / C-index",
    fixed_silos=True,
)
def _build_tcgabrca(spec: DatasetSpec, seed: int):
    from repro.data import build_tcgabrca_benchmark

    return build_tcgabrca_benchmark(
        n_users=spec.users, distribution=spec.distribution, seed=seed
    )


# -- models -------------------------------------------------------------------


@register_model("creditcard-mlp", description="2-hidden-layer MLP (~4K params)")
def _model_creditcard_mlp(rng, fed):
    from repro.nn.model import build_creditcard_mlp

    return build_creditcard_mlp(rng, in_features=fed.test_x.shape[1])


@register_model("mnist-cnn", description="small CNN for image benchmarks")
def _model_mnist_cnn(rng, fed):
    from repro.nn.model import build_mnist_cnn

    return build_mnist_cnn(rng, image_size=fed.test_x.shape[-1])


@register_model("logistic", description="logistic regression")
def _model_logistic(rng, fed):
    from repro.nn.model import build_logistic

    return build_logistic(rng, in_features=fed.test_x.shape[1])


@register_model("cox-linear", description="linear Cox proportional-hazards model")
def _model_cox_linear(rng, fed):
    from repro.nn.model import build_cox_linear

    return build_cox_linear(rng, in_features=fed.test_x.shape[1])
