"""The paper's findings (Section 5), asserted on what ``repro figure`` runs.

Every figure of the paper is an experiment (``repro figure --list``); this
module is the one place its qualitative findings are held, at the ``smoke``
tier, so tier-1 keeps the reproduction honest.  Data are synthetic
stand-ins: a claim is an *ordering* or a *slope*, never an absolute
accuracy.  Tests are named ``test_<experiment>_<finding>``, and
:func:`test_every_experiment_states_a_claim` fails for an experiment with
none.

Each experiment runs once per module (:func:`figure`).  A figure's other
panels -- the paper's uniform-allocation, larger-|U|, other-|S| cells -- run
the way each spec file's header documents them, as ``--set`` assignments on
the same file (:func:`histories`); their user counts are the paper's ratios
applied to the smoke tier's 20 users.
"""

import functools

import pytest

from repro.api.sweep import run_sweep
from repro.experiments import (
    available_experiments,
    run_experiment,
    spec_for_experiment,
)

#: Spec files runnable by name that are examples, not results to hold.
NOT_A_FIGURE = {"bandwidth_sim", "net_sim", "quickstart", "sigma_sweep"}

#: The two analytic tables that are exact at the paper's own parameters and
#: cost nothing there (fig02: 1e5 steps; fig12: |U| = 100, 25K records).
EXACT_AT_PAPER_SCALE = {"fig02", "fig12"}


@functools.cache
def figure(name):
    scale = "paper" if name in EXACT_AT_PAPER_SCALE else "smoke"
    return run_experiment(name, scale=scale)


@functools.cache
def histories(name, *assignments):
    """``name``'s histories; with ``(path, value)`` assignments, those of
    ``repro sweep --config examples/specs/<name>.toml --set path=value``."""
    if not assignments:
        return figure(name).histories
    spec = spec_for_experiment(name, "smoke").with_overrides(dict(assignments))
    return run_sweep(spec).histories


def finals(name, *assignments):
    return {h.method: h.final for h in histories(name, *assignments)}


def rows(name, **where):
    return [
        row for row in figure(name).rows
        if all(row[key] == value for key, value in where.items())
    ]


def panels(*cells):
    return pytest.mark.parametrize(
        "panel", cells,
        ids=[",".join(f"{p.split('.')[-1]}={v}" for p, v in c) or "file" for c in cells],
    )


UNIFORM = ("dataset.distribution", "uniform")
ZIPF = ("dataset.distribution", "zipf")


def test_every_experiment_states_a_claim():
    names = set(available_experiments())
    assert NOT_A_FIGURE <= names, "NOT_A_FIGURE lists a spec file that is gone"
    tests = [name for name in globals() if name.startswith("test_")]
    unclaimed = sorted(
        name for name in names - NOT_A_FIGURE
        if not any(test.startswith(f"test_{name}_") for test in tests)
    )
    assert not unclaimed, f"experiments with no test_<name>_* claim: {unclaimed}"


# -- Fig. 2: group-privacy conversion ------------------------------------------


def test_fig02_group_epsilon_explodes_super_linearly():
    by_k = {row["k"]: row for row in figure("fig02").rows}
    eps = [by_k[k]["eps_rdp_route"] for k in (1, 2, 4, 8, 16, 32, 64)]
    assert 2.5 < eps[0] < 3.2  # paper: 2.85 at k = 1
    assert all(b > a for a, b in zip(eps, eps[1:]))
    assert eps[5] > 1000  # paper: ~2100 at k = 32
    assert eps[6] > 5000  # paper: ~11400 at k = 64
    assert eps[6] / eps[5] > 2.5  # doubling k far more than doubles epsilon


def test_fig02_conversion_routes_agree_for_small_groups():
    for row in figure("fig02").rows[1:4]:  # k = 2, 4, 8
        rdp, dp = row["eps_rdp_route"], row["eps_dp_route"]
        assert max(rdp, dp) / min(rdp, dp) < 6.0  # paper: "roughly 3x at most"


# -- Figs. 4-7: privacy-utility comparisons ------------------------------------

# |U| = 1000 against the file's 100 is 10x; 130 keeps the mean records per
# user at the paper's ~3 on the smoke tier's 400 records.
FIG04_PANELS = panels((), (UNIFORM,), (("dataset.users", 130),),
                      (("dataset.users", 130), UNIFORM))


@FIG04_PANELS
def test_fig04_group_conversion_costs_an_order_of_magnitude(panel):
    by_name = finals("fig04", *panel)
    assert by_name["ULDP-GROUP-8"].epsilon > 10 * by_name["ULDP-AVG"].epsilon
    # NAIVE and AVG share Theorem 1 / 3's epsilon.
    assert by_name["ULDP-NAIVE"].epsilon == pytest.approx(by_name["ULDP-AVG"].epsilon)


@FIG04_PANELS
def test_fig04_non_private_baseline_is_the_ceiling(panel):
    by_name = finals("fig04", *panel)
    best_private = max(f.metric for name, f in by_name.items() if name != "DEFAULT")
    assert by_name["DEFAULT"].metric >= best_private - 0.12  # small-run noise


# The epsilons are accounting, not training: the panels beyond the file's
# own run one round on a sliver of MNIST (the CNN is what costs seconds).
_TINY = (("rounds", 1), ("dataset.records", 100), ("dataset.test_records", 50))
_NON_IID = ("dataset.non_iid", True)


@panels((), (ZIPF, *_TINY), (ZIPF, _NON_IID, *_TINY),
        (("dataset.users", 160), *_TINY),
        (("dataset.users", 160), ZIPF, *_TINY),
        (("dataset.users", 160), ZIPF, _NON_IID, *_TINY))
def test_fig05_group_epsilon_exceeds_direct_even_at_k2(panel):
    by_name = finals("fig05", *panel)
    assert by_name["ULDP-GROUP-2"].epsilon > by_name["ULDP-AVG"].epsilon
    # Theorem 3's epsilon whatever the allocation or label skew.
    assert by_name["ULDP-AVG"].epsilon == pytest.approx(by_name["ULDP-NAIVE"].epsilon)


@panels((), (UNIFORM,), (("dataset.users", 80),), (("dataset.users", 80), UNIFORM))
def test_fig06_every_group_epsilon_dominates_the_direct_one(panel):
    by_name = finals("fig06", *panel)
    groups = [f for name, f in by_name.items() if name.startswith("ULDP-GROUP")]
    assert groups
    assert all(f.epsilon > by_name["ULDP-AVG"].epsilon for f in groups)


FIG07_PANELS = panels((), (("dataset.users", 80),))


@FIG07_PANELS
def test_fig07_group_epsilon_dominates_and_grows_with_group_size(panel):
    for distribution in ("uniform", "zipf"):
        by_name = {
            h.method: h.final for h in histories("fig07", *panel)
            if h.spec["dataset"]["distribution"] == distribution
        }
        group_eps = sorted(
            (int(name.rsplit("-", 1)[1]), f.epsilon)
            for name, f in by_name.items() if name.startswith("ULDP-GROUP")
        )
        assert len(group_eps) == 2  # the median group size and k = 8
        assert all(eps > by_name["ULDP-AVG"].epsilon for _, eps in group_eps)
        # Larger k, worse bound (fig06.toml carries one group size, so the
        # monotonicity it used to print is held here and by fig02).
        assert group_eps[0][1] <= group_eps[1][1]


@FIG07_PANELS
def test_fig07_c_index_stays_in_range(panel):
    found = histories("fig07", *panel)
    assert len(found) == 14  # 2 allocations x 7 methods
    for history in found:
        assert history.final.metric_name == "c_index"
        assert all(0.0 <= m <= 1.0 for m in history.series("metric"))


# -- Fig. 8: Eq. (3) weighting -------------------------------------------------


@panels((), (("dataset.silos", 50),))
def test_fig08_proportional_weights_win_under_skew_and_many_silos(panel):
    """The headline of Section 4.1: with zipf skew and |S| >= 20, Eq. (3)
    weighting reaches a lower test loss than uniform 1/|S| weights (why:
    ``tests/core/test_weighting.py::TestBudgetUtilisation``)."""
    by_name = finals("fig08", *panel)
    assert by_name["ULDP-AVG-w"].loss < by_name["ULDP-AVG"].loss


# -- Fig. 9: user-level sub-sampling -------------------------------------------


def check_amplification(eps):
    assert all(b > a for a, b in zip(eps, eps[1:]))  # epsilon rises with q
    assert eps[-1] / eps[0] > 5  # q = 0.1 buys >= ~5x over full participation


def test_fig09_subsampling_amplifies_privacy():
    assert [r["q"] for r in rows("fig09")] == [0.1, 0.3, 0.5, 0.7, 1.0]
    check_amplification([r["epsilon"] for r in rows("fig09")])


def test_fig09_amplification_holds_on_the_mnist_panel():
    found = histories("fig09", ("dataset.name", "mnist"), *_TINY[1:])
    check_amplification([h.final.epsilon for h in found])


# -- Figs. 10-11: Protocol 1 ---------------------------------------------------


def test_fig10_training_and_weighting_dominate_the_setup_phases():
    """Wall-clock, so only the ordering is asserted: the margin measured on
    the recording host is >= 5x (CHANGES.md, PR 23)."""
    table = rows("fig10")
    assert [r["dataset"] for r in table] == ["heartdisease", "tcgabrca"]
    for row in table:
        work = row["silo_weighted_encryption"] + row["local_training"]
        setup = row["key_exchange"] + row["blinded_histogram"]
        assert row["local_training"] > 0
        assert work > setup, row


@pytest.mark.parametrize("swept", ["params", "users"])
def test_fig11_weighted_encryption_is_affine(swept):
    """The paper's "linear in d and in |U|", as the code has it since the
    exponent split: a silo uploads d ciphertexts whatever |U|, and pays one
    key-width power per user plus ~39-bit look-ups per coordinate
    (``tests/protocol/test_weighted_kernel.py`` counts them) -- affine, not
    proportional.  Equal steps in the swept size are asserted on the
    ciphertext count; of the seconds only "the largest point costs more than
    the smallest" (2-3x here), because "equal increments within 2x" failed 4
    of 53 runs on the recording host when a neighbour's load landed on one
    point.  The seconds are printed (``pytest -s``) and in docs/results.md.
    """
    table = rows("fig11", swept=swept)
    sizes = [r[swept] for r in table]
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1] > 0  # equal steps
    uploads = [r["silo_ciphertexts"] for r in table]
    assert uploads == [r["params"] for r in table]
    seconds = [r["silo_weighted_encryption"] for r in table]
    increments = [b - a for a, b in zip(seconds, seconds[1:])]
    print(f"fig11 silo_weighted_encryption vs {swept} {sizes}: "
          f"seconds {[round(t, 4) for t in seconds]}, "
          f"increments {[round(t, 4) for t in increments]}")
    assert seconds[0] >= 0.05  # large enough to time at all
    assert seconds[2] > seconds[0]


def test_fig11_weighting_outweighs_key_exchange_for_large_models():
    largest = rows("fig11", swept="params")[-1]
    assert largest["silo_weighted_encryption"] > largest["key_exchange"]


# -- Fig. 12: record allocation ------------------------------------------------


def test_fig12_uniform_is_balanced_and_zipf_is_skewed():
    (uniform,), (zipf,) = rows("fig12", distribution="uniform"), rows("fig12", distribution="zipf")
    mean = 25_000 / 100
    assert uniform["max_records"] < 2 * mean
    assert uniform["top_silo_fraction"] < 0.35  # ~1/|S| plus sampling noise
    assert zipf["max_records"] > 2 * zipf["median_records"]
    assert zipf["top_silo_fraction"] > 0.5


# -- sim01: participation dynamics (beyond the paper) --------------------------


def test_sim01_epsilon_rises_exactly_where_sensitivity_does():
    """Theorem 3 under partial participation: a scenario whose realised
    per-release sensitivity stays at 1 spends no more than the ideal-sync
    oracle; one that renormalises past 1 is charged for it."""
    (ideal,) = rows("sim01", scenario="ideal-sync")
    assert ideal["max_sensitivity"] == 1.0
    for row in rows("sim01"):
        assert row["mean_silos"] <= ideal["mean_silos"]
        if row["max_sensitivity"] > 1.0:
            assert row["epsilon"] > ideal["epsilon"], row
        else:
            assert row["epsilon"] <= ideal["epsilon"], row
