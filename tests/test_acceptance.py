"""Acceptance suite. Run with `pytest -v tests/test_acceptance.py` for one
pass/fail line per criterion.

Criteria on the Electricity benchmark need a local copy of the dataset
(45,312 instances, UP/DOWN class); see conftest.py / README for where to
put it. Those tests skip, loudly, when the file is absent. The synthetic
and property-based criteria always run.
"""

import random

import pytest

from streamaudit import (RestartPolicy, SweepConfig, Verdict, audit_accuracy,
                         autocorrelation, gen_iid_labels, independence_bar,
                         label_distribution, majority_baseline,
                         persistence_accuracy, prequential_eval, rho_sweep)
from streamaudit.baselines import _CodedStream
from streamaudit.evaluation import NaiveBayesLearner

from oracles import kernel_trace
from test_baselines import (iid_expected_accuracy, oracle_majority_trace,
                            oracle_restart_trace)

GRID = tuple(round(0.1 * i, 10) for i in range(11))


def test_c01_persistence_bar_on_electricity(electricity_labels):
    acc = persistence_accuracy(electricity_labels)
    assert acc == pytest.approx(0.853, abs=0.002), f"persistence bar = {acc}"


def test_c02_majority_baselines_on_electricity(electricity_labels):
    incremental = majority_baseline(electricity_labels)
    dist = label_distribution(electricity_labels)
    always = max(dist.frequencies.values())  # constant-majority accuracy
    assert incremental == pytest.approx(0.575, abs=0.003), \
        f"incremental majority = {incremental}"
    assert always == pytest.approx(0.575, abs=0.003), \
        f"always-majority = {always}"


def test_c03_independence_bar_on_electricity(electricity_labels):
    bar = independence_bar(label_distribution(electricity_labels))
    assert bar == pytest.approx(0.511, abs=0.005), f"independence bar = {bar}"


def test_c04_sweep_endpoints_are_exact_identities(electricity_labels):
    persistence = persistence_accuracy(electricity_labels)
    majority = majority_baseline(electricity_labels)
    stream = _CodedStream(electricity_labels)
    for seed in (0, 1, 42, 2**63):
        assert stream.accuracy(stream.restarts(RestartPolicy(1.0, seed))) \
            == persistence
        assert stream.accuracy(stream.restarts(RestartPolicy(0.0, seed))) \
            == majority


def test_c05_sweep_shape_on_electricity(electricity_labels):
    result = rho_sweep(electricity_labels,
                       SweepConfig(GRID, repetitions=10, master_seed=42))
    means = [mean for _, mean, _, _, _ in result.summary()]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.005, f"means not nondecreasing: {means}"
    assert means[-1] - means[0] >= 0.20, \
        f"endpoint gap {means[-1] - means[0]:.3f} < 0.20"


def test_c06_iid_flatness():
    """On iid labels random restarts buy no accuracy.

    On iid Bernoulli(0.58) labels every per-rho sweep mean lies within 0.01
    of E(rho), the exact expected accuracy of the restart classifier
    (iid_expected_accuracy in test_baselines); the means do not rise with
    rho (0.005 slack, as in c05); and the rho = 1 end lies within 0.01 of
    the independence bar sum p^2 = 0.5128.

    The criterion once read "every mean within 0.01 of sum p^2". That
    cannot hold at low rho: at rho = 0 the classifier is the incremental
    majority and converges to the marginal, E(0) = 0.5799, and the means
    at rho = 0, 0.1 and 0.2 (0.5785, 0.5295, 0.5229) miss 0.5128. The
    curve is flat only in that it never rises.
    """
    n = 45312
    labels = gen_iid_labels(0.58, n, seed=42)
    result = rho_sweep(labels, SweepConfig(GRID, repetitions=10,
                                           master_seed=42))
    means = [mean for _, mean, _, _, _ in result.summary()]
    for rho, mean in zip(GRID, means):
        exact = iid_expected_accuracy(0.58, n, rho)
        assert abs(mean - exact) < 0.01, \
            f"rho={rho}: mean {mean:.4f}, E(rho) {exact:.4f}; means {means}"
    for lo, hi in zip(means, means[1:]):
        assert hi <= lo + 0.005, f"means rise with rho: {means}"
    assert abs(means[-1] - 0.5128) < 0.01, f"rho=1 mean {means[-1]:.4f}"


def test_c07_acf_daily_peaks_on_electricity(electricity_labels):
    series = autocorrelation(electricity_labels, 102)
    for peak, window in ((48, range(42, 55)), (96, range(90, 103))):
        top = series[peak]
        assert all(top > series[lag] for lag in window if lag != peak), \
            f"r({peak}) is not a strict local maximum over {window}"


def test_c08_naive_bayes_reproduction(electricity):
    # soft criterion: on a miss, the assertion message records the value
    report = prequential_eval(NaiveBayesLearner(electricity), electricity)
    assert report.accuracy == pytest.approx(0.742, abs=0.02), \
        f"prequential naive Bayes accuracy = {report.accuracy:.4f}"


def test_c09_oracle_equivalence_on_random_streams():
    rng = random.Random(987)
    for _ in range(200):
        n = rng.randrange(1, 51)
        labels = [rng.choice("DU") for _ in range(n)]
        rho = rng.random() if rng.random() < 0.8 else rng.choice([0.0, 1.0])
        seed = rng.randrange(2**64)
        pers_oracle = labels[:1] + labels[:-1]
        assert persistence_accuracy(labels) == \
            sum(p == y for p, y in zip(pers_oracle, labels)) / n
        assert kernel_trace(labels, RestartPolicy(0.0)) == \
            oracle_majority_trace(labels, labels[0])
        assert kernel_trace(labels, RestartPolicy(rho, seed)) == \
            oracle_restart_trace(labels, rho, seed, labels[0])


def test_c10_shuffling_destroys_the_gap(electricity_labels):
    bar = independence_bar(label_distribution(electricity_labels))
    for seed in (0, 1, 2, 3, 4):
        shuffled = list(electricity_labels)
        random.Random(seed).shuffle(shuffled)
        assert abs(persistence_accuracy(shuffled) - bar) < 0.01


def test_c11_audit_reproduces_reported_ranking(electricity_labels):
    expected = {
        0.886: Verdict.ABOVE_PERSISTENCE,
        0.849: Verdict.BELOW_PERSISTENCE,
        0.827: Verdict.BELOW_PERSISTENCE,
        0.742: Verdict.BELOW_PERSISTENCE,
        0.575: Verdict.BELOW_PERSISTENCE,
    }
    for accuracy, verdict in expected.items():
        got = audit_accuracy(accuracy, electricity_labels).verdict
        assert got is verdict, f"{accuracy}: {got} != {verdict}"
