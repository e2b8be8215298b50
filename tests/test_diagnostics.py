import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (oracle_audit, oracle_autocorrelation,
                     oracle_diagnose_json, oracle_label_distribution,
                     oracle_persistence_accuracy, oracle_run_lengths)
from test_baselines import electricity_shaped, sticky_stream

from streamaudit import (AttributeSchema, EmptyStream, Instance,
                         LagTooLarge, StreamDataset, ZeroVariance,
                         audit_accuracy, autocorrelation, diagnose,
                         gen_iid_labels, gen_markov_labels, independence_bar,
                         label_distribution, parse_arff, parse_csv,
                         persistence_accuracy, run_lengths)
from streamaudit.diagnostics import LabelDistribution, _Codes, _encode
from streamaudit.stream_io import write_csv
from streamaudit.synth import MarkovLabelModel, labels_to_dataset

label_streams = st.lists(st.sampled_from("DU"), min_size=1, max_size=60)


def test_distribution_counts():
    d = label_distribution(list("DUUDDD"))
    assert d.counts == {"D": 4, "U": 2}
    assert d.frequencies == {"D": 4 / 6, "U": 2 / 6}


def test_distribution_single():
    assert label_distribution(["U"]).frequencies == {"U": 1.0}


def test_distribution_empty():
    with pytest.raises(EmptyStream):
        label_distribution([])


def test_distribution_of_a_generator_equals_that_of_its_list():
    labels = list("DUUDAD")
    dist = label_distribution(lab for lab in labels)
    assert dist == label_distribution(labels)
    assert dist.counts == {"D": 3, "U": 2, "A": 1}


def test_run_lengths_empty():
    with pytest.raises(EmptyStream):
        run_lengths([])


def test_independence_bar_electricity_prior():
    d = label_distribution(["DOWN"] * 575 + ["UP"] * 425)
    assert independence_bar(d) == pytest.approx(0.51125, abs=1e-12)


def test_independence_bar_degenerate_and_uniform():
    assert independence_bar(label_distribution(["A"] * 5)) == 1.0
    uniform = label_distribution(list("ABCD") * 3)
    assert independence_bar(uniform) == pytest.approx(0.25)


@given(label_streams)
def test_independence_bar_minimized_by_uniform(labels):
    d = label_distribution(labels)
    k = len(d.counts)
    bar = independence_bar(d)
    assert bar >= 1 / k - 1e-12
    if len(set(d.counts.values())) == 1:
        assert bar == pytest.approx(1 / k)


def shuffled_persistence(counts):
    """Expected persistence accuracy over uniform shuffles of a stream with
    these class counts, the first label predicting itself: each of the
    n - 1 neighbour pairs is equal with probability
    sum_c S_c (S_c - 1) / (n (n - 1))."""
    n = sum(counts)
    return (1 + sum(Fraction(s * (s - 1), n) for s in counts)) / n


def test_independence_bar_is_shuffled_persistence_on_count_vectors():
    rng = random.Random(20261020)
    for _ in range(300):
        counts = [rng.randint(1, rng.choice([3, 50, 10**6]))
                  for _ in range(rng.randint(1, 6))]
        n = sum(counts)
        exact = sum(Fraction(s, n) ** 2 for s in counts)
        assert shuffled_persistence(counts) == exact
        bar = independence_bar(LabelDistribution(dict(enumerate(counts)), n))
        assert bar == pytest.approx(float(exact), rel=1e-15, abs=0)


def test_independence_bar_is_persistence_over_every_permutation():
    # every arrangement of every stream of 1-3 classes and n <= 7 labels;
    # distinct arrangements are equally likely under a uniform shuffle
    for n in range(1, 8):
        for k in range(1, 4):
            for cuts in itertools.combinations(range(1, n), k - 1):
                counts = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
                stream = [c for c, s in zip("ABC", counts) for _ in range(s)]
                orders = set(itertools.permutations(stream))
                hits = sum(round(persistence_accuracy(list(order)) * n)
                           for order in orders)
                exact = sum(Fraction(s, n) ** 2 for s in counts)
                assert Fraction(hits, n * len(orders)) == exact
                assert shuffled_persistence(counts) == exact
                assert independence_bar(label_distribution(stream)) == \
                    pytest.approx(float(exact), rel=1e-15, abs=0)


def test_persistence_hand_trace():
    assert persistence_accuracy(list("DUUDDD")) == pytest.approx(4 / 6)


def test_persistence_constant_stream():
    assert persistence_accuracy(list("DDDD")) == 1.0


def test_persistence_empty():
    with pytest.raises(EmptyStream):
        persistence_accuracy([])


@given(label_streams)
def test_persistence_equals_one_minus_alternation_rate(labels):
    # oracle: count adjacent equal pairs directly
    alternations = sum(labels[t] != labels[t - 1] for t in range(1, len(labels)))
    expected = 1 - alternations / len(labels)
    assert persistence_accuracy(labels) == pytest.approx(expected)


def test_acf_alternating_hand_values():
    series = autocorrelation(list("UDUDUDUD"), 2)
    assert series[1] == pytest.approx(-0.875, abs=1e-12)
    assert series[2] == pytest.approx(0.75, abs=1e-12)


def test_acf_errors():
    with pytest.raises(ZeroVariance):
        autocorrelation(list("DDDD"), 2)
    three = list("ABCA")
    assert autocorrelation(three, 2) == oracle_autocorrelation(three, 2)
    with pytest.raises(LagTooLarge):
        autocorrelation(list("UDUD"), 4)
    with pytest.raises(ValueError, match="max_lag must be >= 1"):
        autocorrelation(list("UDUD"), 0)


def test_acf_encoding_invariance():
    # r(k) is exact, so it is the same whichever class is x = 1: on the
    # complemented labels, and on codes handed in with the other class as 1
    labels = list("UUDUDDUUUDUD")
    a = autocorrelation(labels, 3)
    assert autocorrelation(["UD"[lab == "U"] for lab in labels], 3) == a
    codes, classes = _encode(labels)
    assert autocorrelation(_Codes(1 - codes, classes[::-1]), 3) == a
    # and with three classes, under a renaming of the codes
    codes, classes = _encode(list("AABCCBAACBBBCA"))
    a = autocorrelation(_Codes(codes, classes), 4)
    assert autocorrelation(_Codes(2 - codes, classes), 4) == a


def acf_bruteforce(xs, k):
    n = len(xs)
    mean = sum(xs) / n
    num = sum((xs[t] - mean) * (xs[t + k] - mean) for t in range(n - k))
    den = sum((x - mean) ** 2 for x in xs)
    return num / den


def test_acf_matches_bruteforce():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.randrange(10, 1000)
        labels = [rng.choice("UD") for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        max_lag = min(20, n - 1)
        series = autocorrelation(labels, max_lag)
        xs = [0 if lab == "U" else 1 for lab in labels]
        for k in range(1, max_lag + 1):
            assert series[k] == pytest.approx(acf_bruteforce(xs, k), abs=1e-12)


def test_acf_is_exact_on_an_electricity_shaped_stream():
    # 45,312 labels is no power of two: a float ACF rounds differently with
    # the summation order, the integer one equals the exact oracle
    ds = electricity_shaped()
    assert autocorrelation(ds, 96) == oracle_autocorrelation(ds.labels(), 96)


def test_acf_values_in_range():
    labels = gen_iid_labels(0.3, 500, seed=8)
    series = autocorrelation(labels, 50)
    assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in series.values)
    assert len(series.values) == 50


def test_run_lengths_hand():
    stats = run_lengths(list("DUUDDD"))
    assert (stats.count, stats.mean, stats.max) == (3, 2.0, 3)


def test_run_lengths_constant():
    stats = run_lengths(["X"] * 7)
    assert (stats.count, stats.mean, stats.max) == (1, 7.0, 7)


@given(label_streams)
def test_run_lengths_sum_to_n(labels):
    stats = run_lengths(labels)
    assert stats.count * stats.mean == pytest.approx(len(labels))
    assert stats.max >= stats.mean


def test_run_lengths_iid_mean_matches_theory():
    # analytic mean run length for iid Bernoulli(p): 1 / (2 p (1-p));
    # interval pinned after a 25-seed Monte Carlo gave means in [2.04, 2.07]
    for seed in (0, 7, 19):
        labels = gen_iid_labels(0.58, 45312, seed=seed)
        assert 1.9 <= run_lengths(labels).mean <= 2.2


def test_diagnose_assembles_report():
    labels = gen_iid_labels(0.58, 45312, seed=2)
    report = diagnose(labels, max_lag=20)
    assert report.independence_bar == pytest.approx(
        independence_bar(report.distribution))
    assert abs(report.persistence_bar - report.independence_bar) < 0.01
    assert len(report.acf.values) == 20
    doc = json.loads(report.to_json())
    assert set(doc) == {"n", "class_priors", "independence_bar",
                        "persistence_bar", "run_lengths", "acf"}
    assert doc["n"] == 45312


def test_diagnose_single_instance():
    report = diagnose(["U"], max_lag=10)
    assert report.acf is None and report.acf_note
    assert (report.run_lengths.count, report.run_lengths.max) == (1, 1)
    assert report.persistence_bar == 1.0  # first-label cold start


def test_diagnose_accepts_dataset():
    report = diagnose(labels_to_dataset([0, 1, 1, 0]), max_lag=2)
    assert report.distribution.counts == {"1": 2, "0": 2}


@pytest.mark.parametrize("labels", [[0, 1, 1, 0, 1], list("abaab")],
                         ids=["ints", "strs"])
def test_numpy_label_array_reads_like_a_list(labels):
    # the classes are Python scalars, so the JSON keys serialise
    array = np.array(labels)
    assert diagnose(array, max_lag=2).to_json() == \
        diagnose(labels, max_lag=2).to_json()
    assert audit_accuracy(0.7, array) == audit_accuracy(0.7, labels)
    counts = label_distribution(array).counts
    assert counts == label_distribution(labels).counts
    assert {type(c) for c in counts} == {type(labels[0])}


def test_acf_csv_export():
    series = autocorrelation(list("UDUDUDUD"), 2)
    lines = series.to_csv().splitlines()
    assert lines[0] == "lag,acf"
    assert lines[1].startswith("1,-0.875")


# ---------------------------------------------------------------------------
# the bars from class codes against the string oracles in oracles.py

@st.composite
def coded_datasets(draw):
    """A dataset of 1-6 classes whose schema lists its values in another
    order than their first occurrence, maybe with a value that never
    occurs."""
    k = draw(st.integers(1, 6))
    alphabet = "ABCDEF"[:k]
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=1,
                           max_size=60))
    declared = tuple(draw(st.permutations(
        alphabet + draw(st.sampled_from(["", "G"])))))
    schema = (AttributeSchema("x", None), AttributeSchema("cls", declared))
    ds = StreamDataset(schema, [Instance((0.0,), declared.index(lab))
                                for lab in labels], 1)
    max_lag = draw(st.integers(1, len(labels) + 1))
    return ds, labels, max_lag


@given(coded_datasets(), st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_bars_from_codes_match_string_oracles(case, accuracy):
    ds, labels, max_lag = case
    assert ds.labels() == labels
    expected = oracle_diagnose_json(labels, max_lag)
    assert diagnose(ds, max_lag).to_json() == expected
    assert diagnose(ds.labels(), max_lag).to_json() == expected
    verdict = oracle_audit(accuracy, labels)
    assert audit_accuracy(accuracy, ds) == verdict
    assert audit_accuracy(accuracy, labels) == verdict
    dist = label_distribution(labels)
    assert list(dist.counts.items()) == \
        list(oracle_label_distribution(labels).counts.items())
    stats = run_lengths(labels)
    assert (stats.count, stats.mean, stats.max) == oracle_run_lengths(labels)
    assert persistence_accuracy(labels) == oracle_persistence_accuracy(labels)


def test_bars_from_codes_first_label_not_first_declared():
    # explicit case: schema order {C,B,A}, first occurrence A, C, B
    labels = list("AACCBBAC")
    schema = (AttributeSchema("cls", ("C", "B", "A")),)
    ds = StreamDataset(schema, [Instance((), "CBA".index(lab))
                                for lab in labels], 0)
    assert diagnose(ds, 3).to_json() == oracle_diagnose_json(labels, 3)
    assert audit_accuracy(0.5, ds) == oracle_audit(0.5, labels)
    priors = json.loads(diagnose(ds, 3).to_json())["class_priors"]
    assert list(priors) == ["A", "C", "B"]


@given(coded_datasets())
@settings(max_examples=150, deadline=None)
def test_acf_counts_occurring_classes(case):
    # the ACF runs on any stream where at least two classes occur, however
    # many and whatever the schema declares, and equals the exact oracle
    ds, labels, max_lag = case
    try:
        expected = oracle_autocorrelation(labels, max_lag)
    except (ZeroVariance, LagTooLarge) as exc:
        with pytest.raises(type(exc), match=str(exc)):
            autocorrelation(labels, max_lag)
        return
    assert autocorrelation(labels, max_lag) == expected
    assert autocorrelation(ds, max_lag) == expected


@given(st.lists(st.sampled_from("ABCDE"), min_size=2, max_size=80)
       .filter(lambda labels: len(set(labels)) > 1))
@settings(max_examples=150, deadline=None)
def test_acf_lag1_identity(labels):
    # r(1) = (P - I - (1 + I)/n + (S[x_1] + S[x_n])/n^2) / (1 - I) exactly,
    # with P the persistence bar and I the independence bar as fractions
    n = len(labels)
    counts = Counter(labels)
    hits = sum(a == b for a, b in zip(labels, labels[1:]))
    p = Fraction(1 + hits, n)
    i = Fraction(sum(s * s for s in counts.values()), n * n)
    r1 = (p - i - (1 + i) / n
          + Fraction(counts[labels[0]] + counts[labels[-1]], n * n)) / (1 - i)
    assert autocorrelation(labels, 1)[1] == float(r1)
    assert persistence_accuracy(labels) == float(p)
    assert abs(r1 - (p - i) / (1 - i)) <= Fraction(2, n) / (1 - i)


# golden sha256 of diagnose(...).to_json(), each report first checked
# against the oracle's: a 3-class CSV (declared in first-occurrence order),
# a 3-class ARFF declared {A,B,C} whose first label is C, and a binary ARFF
# declared {D,U} whose first label is U. The digests are the exact ACF's:
# n = 3,000 and 3,001 are no powers of two, so a float ACF's last digits
# would follow the BLAS summation order.

def _arff(path, values, labels):
    path.write_text(f"@relation r\n@attribute cls {{{','.join(values)}}}\n"
                    "@data\n" + "\n".join(labels) + "\n")
    return parse_arff(str(path))


@pytest.mark.parametrize("stream, digest", [
    ("sticky-3class-csv",
     "89cb0a4dc80b12b9f12cc8d8eafb016fe7a86a4a151e50a5fd6dbb3e6bf79814"),
    ("sticky-3class-arff-CBA",
     "58edc52260ad2f4a912739f692f353af0cefa54c2fbbaa45eb2d71a77a288f45"),
    ("markov-arff-UD",
     "62e890229da9e23d8b0e4ae96e8d7c38790889f0c5d5b048803060413a52b955"),
])
def test_diagnose_json_golden_sha256(tmp_path, stream, digest):
    if stream == "sticky-3class-csv":
        path = tmp_path / "sticky3.csv"
        path.write_text(write_csv(("label",),
                                  zip(sticky_stream(3000, "ABC", 0.7, 5))))
        ds = parse_csv(str(path))
    elif stream == "sticky-3class-arff-CBA":
        ds = _arff(tmp_path / "s.arff", "ABC",
                   ["C"] + sticky_stream(2999, "ABC", 0.8, 13))
    else:
        codes = gen_markov_labels(MarkovLabelModel(0.42, 0.7, 3000, seed=9))
        ds = _arff(tmp_path / "m.arff", "DU",
                   ["U"] + ["DU"[c] for c in codes])
    text = diagnose(ds).to_json()
    assert text == oracle_diagnose_json(ds.labels())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
