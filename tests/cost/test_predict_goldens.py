"""Golden predictions of the cost model, recorded before its rewrite.

Every value below was recorded with the symbolic cost model (the last one,
after ``scenario_traits`` began reading recipes through
:func:`repro.sim.scenarios.scenario_recipe`): all five metrics of
:func:`repro.cost.planner.predict`, per phase and in total, for every
``examples/specs/*.toml`` and for ``--set`` variants that reach each phase
kind (masked and rand-k Paillier crypto, the sharded engine, a network
link, churn, fractional participation, a quantized rand-k and a compressed
downlink), plus :func:`repro.cost.planner.solve_max_users` answers under
seconds, uplink and memory budgets.

Bytes, ciphertext counts and user counts must match exactly; seconds and
memory (products of fitted or fractional numbers) to a relative 1e-12.

Re-pinned once since, when the broadcast became the float32 array the
silos train from (``FLMethod.broadcast``): every dense ``downlink_bytes``
exactly halved, and with it the seconds of the ``network`` phase (bytes
over the link) and the totals that include it.  Nothing else moved.

Re-pinned again when a compressed payload became a real Elias--Fano wire
string (``repro.compress.codec``) and ``CompressionSpec.payload_bytes``
its length: the compressed uplink bytes (quickstart 5215 -> 1885 a round,
bandwidth_sim 3129 -> 1131, the rand-k 8-bit variant 10365 -> 3465), the
compressed downlink of ``quickstart+downlink``, the ``network`` seconds of
``quickstart+workers2+bandwidth`` and the totals that include them.
Nothing else moved.

Re-pinned twice more, each by a script that refused any other move.
When a ULDP-AVG-family silo's release became float32
(``FLMethod.payload_dtype``): every dense plaintext ``uplink_bytes``
exactly halved (fig04 165200 -> 82600 a round, fig05 766480 -> 383240,
net_sim 99120 -> 49560, ...), with the ``network`` seconds of
``fig05+bandwidth`` and the totals that include them.  Then, when
``BENCH_engine.json`` / ``BENCH_sim.json`` were re-recorded and the
constants they feed re-fitted: the seconds of every CNN and simulation
case (fig05 0.651 -> 0.194 s a round, sim01 0.0233 -> 0.0429 s) and the
``round_seconds`` answers of ``fig05`` / ``fig05+workers2`` (2304 ->
7745 users) and ``sim01+user-churn`` (2146 -> 1165).  No byte, element
or memory figure moved in that second step.

Re-pinned once more, by a script that refused any other move, when a
masked silo began masking its own release in Z_{2^64}: ``fig10+masked``
alone moved.  Its ``mask_and_upload`` uplink and memory fell 4x (2240 ->
560 B a round: 8 B a coordinate, not 32), its seconds followed the
re-fitted ``masked_setup`` / ``masked_round``, and its ``solve_max_users``
answer went from 0 to 7 users (the uplink budget no longer binds).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.spec import RunSpec, apply_overrides, load_spec_tree, parse_assignment
from repro.cost.model import METRICS
from repro.cost.planner import predict, solve_max_users

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: name -> (spec file stem, ``--set`` assignments).
VARIANTS = {
    "fig10+masked": ("fig10", ["crypto.backend=masked"]),
    "fig10+randk": ("fig10", ["compression.sparsify=randk", "compression.fraction=0.01"]),
    "fig05+workers2": ("fig05", ["engine.workers=2"]),
    "fig05+bandwidth": ("fig05", ["cost.bandwidth_mbps=100"]),
    "quickstart+workers2+bandwidth": (
        "quickstart", ["engine.workers=2", "cost.bandwidth_mbps=10", "cost.retry_overhead=0.1"]),
    "sim01+user-churn": ("sim01", ["sim.scenario=user-churn"]),
    "sim01+flaky-silos": ("sim01", ["sim.scenario=flaky-silos"]),
    "quickstart+randk-q8": (
        "quickstart",
        ["compression.sparsify=randk", "compression.fraction=0.1", "compression.quantize_bits=8"],
    ),
    "quickstart+downlink": ("quickstart", ["compression.downlink=true"]),
}

CASES = {path.stem: (path.stem, []) for path in sorted(SPECS.glob("*.toml"))} | VARIANTS

#: name -> (case, budget_seconds, budget_uplink_bytes, budget_memory_bytes).
SOLVES = {
    "quickstart": ("quickstart", 5.0, 1e6, 1e8),
    "fig05": ("fig05", 30.0, 5e6, 2e8),
    "fig10": ("fig10", 60.0, 1e7, 1e6),
    "fig10+masked": ("fig10+masked", 1.0, 1e3, 1e5),
    "fig05+workers2": ("fig05+workers2", 30.0, 5e6, 2e9),
    "sim01+user-churn": ("sim01+user-churn", 1.0, 1e6, 1e6),
}

BYTE_METRICS = ("uplink_bytes", "downlink_bytes", "cipher_elements")


def case_spec(case: str) -> RunSpec:
    """The spec ``repro cost --config <stem>.toml --set ...`` prices."""
    stem, assignments = CASES[case]
    tree = load_spec_tree(str(SPECS / f"{stem}.toml"))
    if assignments:
        tree = apply_overrides(tree, dict(parse_assignment(a) for a in assignments))
    return RunSpec.from_dict(tree)


def observe(case: str) -> dict:
    """Every number :func:`predict` reports for ``case``."""
    report = predict(case_spec(case))
    row = lambda values: tuple(values[m] for m in METRICS)  # noqa: E731
    return {
        "header": (report.method, report.backend, report.family, report.rounds),
        "phases": [(ph.name, ph.per, row(ph.values)) for ph in report.phases],
        "round": row(report.round_totals),
        "setup": row(report.setup_totals),
        "run": row(report.run_totals),
    }


def observe_solve(name: str) -> tuple[int, dict]:
    case, seconds, uplink, memory = SOLVES[name]
    answer = solve_max_users(
        case_spec(case),
        budget_seconds=seconds,
        budget_uplink_bytes=uplink,
        budget_memory_bytes=memory,
    )
    return answer.max_users, answer.per_budget


def assert_row(got: tuple, want: tuple, where: str) -> None:
    for metric, g, w in zip(METRICS, got, want):
        if metric in BYTE_METRICS:
            assert g == w, f"{where}.{metric}: {g!r} != {w!r}"
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=0), f"{where}.{metric}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_predict_matches_golden(case):
    got, want = observe(case), GOLDENS[case]
    assert got["header"] == want["header"]
    assert [p[:2] for p in got["phases"]] == [p[:2] for p in want["phases"]]
    for (name, per, values), (_, _, expected) in zip(got["phases"], want["phases"]):
        assert_row(values, expected, f"{case}:{name}")
    for scope in ("round", "setup", "run"):
        assert_row(got[scope], want[scope], f"{case}:total {scope}")


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_max_users_matches_golden(name):
    assert observe_solve(name) == SOLVE_GOLDENS[name]


def test_every_example_spec_is_a_case():
    assert {p.stem for p in SPECS.glob("*.toml")} <= set(CASES)


# -- recorded values (METRICS order: seconds, uplink_bytes, downlink_bytes,
#    cipher_elements, memory_bytes) ------------------------------------------

GOLDENS: dict = {'bandwidth_sim': {'header': ('uldp-avg-w', None, 'sim', 3),
                   'phases': [('local_train', 'round', (0.006435445158138802, 0.0, 0.0, 0.0, 12.0)),
                              ('uplink', 'round', (0.0, 1131.0, 0.0, 0.0, 0.0)),
                              ('broadcast', 'round', (0.0, 0.0, 49560.0, 0.0, 0.0))],
                   'round': (0.006435445158138802, 1131.0, 49560.0, 0.0, 12.0),
                   'run': (0.019306335474416406, 3393.0, 148680.0, 0.0, 12.0),
                   'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig04': {'header': ('uldp-avg-w', None, 'dense', 5),
           'phases': [('local_train', 'round', (2.72765984128791, 0.0, 0.0, 0.0, 4264000.0)),
                      ('uplink', 'round', (0.0, 82600.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
           'round': (2.72765984128791, 82600.0, 82600.0, 0.0, 4264000.0),
           'run': (13.63829920643955, 413000.0, 413000.0, 0.0, 4264000.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig05': {'header': ('uldp-avg-w', None, 'cnn', 3),
           'phases': [('local_train', 'round', (0.19366666666666663, 0.0, 0.0, 0.0, 9546400.0)),
                      ('uplink', 'round', (0.0, 383240.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 383240.0, 0.0, 0.0))],
           'round': (0.19366666666666663, 383240.0, 383240.0, 0.0, 9546400.0),
           'run': (0.5809999999999998, 1149720.0, 1149720.0, 0.0, 9546400.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig05+bandwidth': {'header': ('uldp-avg-w', None, 'cnn', 3),
                     'phases': [('local_train',
                                 'round',
                                 (0.19366666666666663, 0.0, 0.0, 0.0, 9546400.0)),
                                ('uplink', 'round', (0.0, 383240.0, 0.0, 0.0, 0.0)),
                                ('broadcast', 'round', (0.0, 0.0, 383240.0, 0.0, 0.0)),
                                ('network', 'round', (0.0613184, 0.0, 0.0, 0.0, 0.0))],
                     'round': (0.25498506666666665, 383240.0, 383240.0, 0.0, 9546400.0),
                     'run': (0.7649552, 1149720.0, 1149720.0, 0.0, 9546400.0),
                     'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig05+workers2': {'header': ('uldp-avg-w', None, 'cnn', 3),
                    'phases': [('local_train',
                                'round',
                                (0.19366666666666663, 0.0, 0.0, 0.0, 1793708491.6726265)),
                               ('uplink', 'round', (0.0, 383240.0, 0.0, 0.0, 0.0)),
                               ('broadcast', 'round', (0.0, 0.0, 383240.0, 0.0, 0.0))],
                    'round': (0.19366666666666663, 383240.0, 383240.0, 0.0, 1793708491.6726265),
                    'run': (0.5809999999999998, 1149720.0, 1149720.0, 0.0, 1793708491.6726265),
                    'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig06': {'header': ('uldp-avg-w', None, 'dense', 5),
           'phases': [('local_train', 'round', (0.009246304546738679, 0.0, 0.0, 0.0, 421600.0)),
                      ('uplink', 'round', (0.0, 280.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 280.0, 0.0, 0.0))],
           'round': (0.009246304546738679, 280.0, 280.0, 0.0, 421600.0),
           'run': (0.04623152273369339, 1400.0, 1400.0, 0.0, 421600.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig07': {'header': ('uldp-avg-w', None, 'dense', 5),
           'phases': [('local_train', 'round', (0.026418012990681937, 0.0, 0.0, 0.0, 1264000.0)),
                      ('uplink', 'round', (0.0, 800.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 800.0, 0.0, 0.0))],
           'round': (0.026418012990681937, 800.0, 800.0, 0.0, 1264000.0),
           'run': (0.1320900649534097, 4000.0, 4000.0, 0.0, 1264000.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig08': {'header': ('uldp-avg-w', None, 'dense', 5),
           'phases': [('local_train', 'round', (2.72765984128791, 0.0, 0.0, 0.0, 4264000.0)),
                      ('uplink', 'round', (0.0, 330400.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 330400.0, 0.0, 0.0))],
           'round': (2.72765984128791, 330400.0, 330400.0, 0.0, 4264000.0),
           'run': (13.63829920643955, 1652000.0, 1652000.0, 0.0, 4264000.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig09': {'header': ('uldp-avg-w', None, 'dense', 5),
           'phases': [('local_train', 'round', (1.363829920643955, 0.0, 0.0, 0.0, 4264000.0)),
                      ('uplink', 'round', (0.0, 82600.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
           'round': (1.363829920643955, 82600.0, 82600.0, 0.0, 4264000.0),
           'run': (6.819149603219775, 413000.0, 413000.0, 0.0, 4264000.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'fig10': {'header': ('secure-uldp-avg', 'fast', 'dense', 5),
           'phases': [('local_train',
                       'round',
                       (0.0046231522733693395, 0.0, 0.0, 0.0, 419360.00000000006)),
                      ('keygen', 'setup', (0.016640660283155136, 0.0, 0.0, 0.0, 0.0)),
                      ('offline_randomizers', 'round', (0.12628002562504761, 0.0, 0.0, 0.0, 0.0)),
                      ('setup_misc', 'setup', (0.009006735770137457, 0.0, 0.0, 0.0, 0.0)),
                      ('silo_weighted_encryption',
                       'round',
                       (0.19220495919802716, 8960.0, 0.0, 70.0, 8960.0)),
                      ('aggregate_decrypt', 'round', (0.006761487776164492, 0.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 280.0, 0.0, 0.0))],
           'round': (0.3298696248726086, 8960.0, 280.0, 70.0, 419360.00000000006),
           'run': (1.6749955204163356, 44800.0, 1400.0, 350.0, 419360.00000000006),
           'setup': (0.025647396053292595, 0.0, 0.0, 0.0, 0.0)},
 'fig10+masked': {'header': ('secure-uldp-avg', 'masked', 'dense', 5),
                  'phases': [('local_train',
                              'round',
                              (0.0046231522733693395, 0.0, 0.0, 0.0, 419360.00000000006)),
                             ('mask_setup', 'setup', (0.006683250208330744, 0.0, 0.0, 0.0, 0.0)),
                             ('mask_and_upload',
                              'round',
                              (5.33203125e-06, 560.0, 0.0, 70.0, 560.0)),
                             ('broadcast', 'round', (0.0, 0.0, 280.0, 0.0, 0.0))],
                  'round': (0.00462848430461934, 560.0, 280.0, 70.0, 419360.00000000006),
                  'run': (0.02982567173142744, 2800.0, 1400.0, 350.0, 419360.00000000006),
                  'setup': (0.006683250208330744, 0.0, 0.0, 0.0, 0.0)},
 'fig10+randk': {'header': ('secure-uldp-avg', 'fast', 'dense', 5),
                 'phases': [('local_train',
                             'round',
                             (0.0046231522733693395, 0.0, 0.0, 0.0, 419360.00000000006)),
                            ('keygen', 'setup', (0.016640660283155136, 0.0, 0.0, 0.0, 0.0)),
                            ('offline_randomizers',
                             'round',
                             (0.009020001830360544, 0.0, 0.0, 0.0, 0.0)),
                            ('setup_misc', 'setup', (0.009006735770137457, 0.0, 0.0, 0.0, 0.0)),
                            ('silo_weighted_encryption',
                             'round',
                             (0.1801026304691537, 640.0, 0.0, 5.0, 640.0)),
                            ('aggregate_decrypt',
                             'round',
                             (0.000482963412583178, 0.0, 0.0, 0.0, 0.0)),
                            ('broadcast', 'round', (0.0, 0.0, 280.0, 0.0, 0.0))],
                 'round': (0.19422874798546677, 640.0, 280.0, 5.0, 419360.00000000006),
                 'run': (0.9967911359806264, 3200.0, 1400.0, 25.0, 419360.00000000006),
                 'setup': (0.025647396053292595, 0.0, 0.0, 0.0, 0.0)},
 'net_sim': {'header': ('uldp-avg-w', None, 'sim', 3),
             'phases': [('local_train', 'round', (0.006435445158138802, 0.0, 0.0, 0.0, 12.0)),
                        ('uplink', 'round', (0.0, 49560.0, 0.0, 0.0, 0.0)),
                        ('broadcast', 'round', (0.0, 0.0, 49560.0, 0.0, 0.0))],
             'round': (0.006435445158138802, 49560.0, 49560.0, 0.0, 12.0),
             'run': (0.019306335474416406, 148680.0, 148680.0, 0.0, 12.0),
             'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'quickstart': {'header': ('uldp-avg-w', None, 'dense', 5),
                'phases': [('local_train', 'round', (2.72765984128791, 0.0, 0.0, 0.0, 4264000.0)),
                           ('uplink', 'round', (0.0, 1885.0, 0.0, 0.0, 0.0)),
                           ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
                'round': (2.72765984128791, 1885.0, 82600.0, 0.0, 4264000.0),
                'run': (13.63829920643955, 9425.0, 413000.0, 0.0, 4264000.0),
                'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'quickstart+downlink': {'header': ('uldp-avg-w', None, 'dense', 5),
                         'phases': [('local_train',
                                     'round',
                                     (2.72765984128791, 0.0, 0.0, 0.0, 4264000.0)),
                                    ('uplink', 'round', (0.0, 1885.0, 0.0, 0.0, 0.0)),
                                    ('broadcast', 'round', (0.0, 0.0, 1885.0, 0.0, 0.0))],
                         'round': (2.72765984128791, 1885.0, 1885.0, 0.0, 4264000.0),
                         'run': (13.63829920643955, 9425.0, 9425.0, 0.0, 4264000.0),
                         'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'quickstart+randk-q8': {'header': ('uldp-avg-w', None, 'dense', 5),
                         'phases': [('local_train',
                                     'round',
                                     (2.72765984128791, 0.0, 0.0, 0.0, 4264000.0)),
                                    ('uplink', 'round', (0.0, 3465.0, 0.0, 0.0, 0.0)),
                                    ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
                         'round': (2.72765984128791, 3465.0, 82600.0, 0.0, 4264000.0),
                         'run': (13.63829920643955, 17325.0, 413000.0, 0.0, 4264000.0),
                         'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'quickstart+workers2+bandwidth': {'header': ('uldp-avg-w', None, 'dense', 5),
                                   'phases': [('local_train',
                                               'round',
                                               (2.72765984128791,
                                                0.0,
                                                0.0,
                                                0.0,
                                                400589384.9247925)),
                                              ('uplink', 'round', (0.0, 1885.0, 0.0, 0.0, 0.0)),
                                              ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0)),
                                              ('network',
                                               'round',
                                               (0.07434680000000002, 0.0, 0.0, 0.0, 0.0))],
                                   'round': (2.80200664128791,
                                             1885.0,
                                             82600.0,
                                             0.0,
                                             400589384.9247925),
                                   'run': (14.01003320643955,
                                           9425.0,
                                           413000.0,
                                           0.0,
                                           400589384.9247925),
                                   'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'sigma_sweep': {'header': ('uldp-avg-w', None, 'dense', 5),
                 'phases': [('local_train',
                             'round',
                             (0.6819149603219775, 0.0, 0.0, 0.0, 2132000.0)),
                            ('uplink', 'round', (0.0, 82600.0, 0.0, 0.0, 0.0)),
                            ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
                 'round': (0.6819149603219775, 82600.0, 82600.0, 0.0, 2132000.0),
                 'run': (3.4095748016098875, 413000.0, 413000.0, 0.0, 2132000.0),
                 'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'sim01': {'header': ('uldp-avg-w', None, 'sim', 10),
           'phases': [('local_train', 'round', (0.04290296772092535, 0.0, 0.0, 0.0, 50.0)),
                      ('uplink', 'round', (0.0, 82600.0, 0.0, 0.0, 0.0)),
                      ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0))],
           'round': (0.04290296772092535, 82600.0, 82600.0, 0.0, 50.0),
           'run': (0.42902967720925345, 826000.0, 826000.0, 0.0, 50.0),
           'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'sim01+flaky-silos': {'header': ('uldp-avg-w', None, 'sim', 10),
                       'phases': [('local_train',
                                   'round',
                                   (0.030032077404647743, 0.0, 0.0, 0.0, 50.0)),
                                  ('uplink', 'round', (0.0, 57819.99999999999, 0.0, 0.0, 0.0)),
                                  ('broadcast', 'round', (0.0, 0.0, 57819.99999999999, 0.0, 0.0))],
                       'round': (0.030032077404647743,
                                 57819.99999999999,
                                 57819.99999999999,
                                 0.0,
                                 50.0),
                       'run': (0.30032077404647745, 578200.0, 578200.0, 0.0, 50.0),
                       'setup': (0.0, 0.0, 0.0, 0.0, 0.0)},
 'sim01+user-churn': {'header': ('uldp-avg-w', None, 'sim', 10),
                      'phases': [('local_train',
                                  'round',
                                  (0.04290296772092535, 0.0, 0.0, 0.0, 50.0)),
                                 ('uplink', 'round', (0.0, 82600.0, 0.0, 0.0, 0.0)),
                                 ('broadcast', 'round', (0.0, 0.0, 82600.0, 0.0, 0.0)),
                                 ('churn', 'round', (1.617067754167086e-07, 0.0, 0.0, 0.0, 0.0))],
                      'round': (0.04290312942770076, 82600.0, 82600.0, 0.0, 50.0),
                      'run': (0.4290312942770076, 826000.0, 826000.0, 0.0, 50.0),
                      'setup': (0.0, 0.0, 0.0, 0.0, 0.0)}}

SOLVE_GOLDENS: dict = {'fig05': (1047,
           {'memory_bytes': 1047, 'round_seconds': 7745, 'round_uplink_bytes': 1000000000000}),
 'fig05+workers2': (7745,
                    {'memory_bytes': 1000000000000,
                     'round_seconds': 7745,
                     'round_uplink_bytes': 1000000000000}),
 'fig10': (71, {'memory_bytes': 71, 'round_seconds': 9124, 'round_uplink_bytes': 1000000000000}),
 'fig10+masked': (7,
                  {'memory_bytes': 7, 'round_seconds': 6489, 'round_uplink_bytes': 1000000000000}),
 'quickstart': (183,
                {'memory_bytes': 2345, 'round_seconds': 183, 'round_uplink_bytes': 1000000000000}),
 'sim01+user-churn': (1165,
                      {'memory_bytes': 1000000,
                       'round_seconds': 1165,
                       'round_uplink_bytes': 1000000000000})}
