import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SplitMix64

from streamaudit import (EmptyStream, InvalidModel, MarkovLabelModel,
                         autocorrelation, gen_iid_labels, gen_markov_labels,
                         labels_to_arff, labels_to_csv, parse_arff, parse_csv,
                         persistence_accuracy)
from streamaudit.rng import bernoullis, derive_seed, uniforms


def test_splitmix_scalar_vector_agree():
    for seed in (987654321, 0, 2**64 - 1, -1, 2**64, -(2**70)):
        for n in (1000, 0, 1, 2):
            rng = SplitMix64(seed)
            scalar = [rng.random() for _ in range(n)]
            assert scalar == uniforms(seed, n).tolist(), (seed, n)


def test_bernoullis_equal_uniform_compares_at_the_seams():
    seed, n = 20261018, 5000
    u = uniforms(seed, n)
    drawn = float(u[1234])
    rhos = [drawn, math.nextafter(drawn, 0.0), math.nextafter(drawn, 1.0),
            2.0**-1074, 1.0 - 2.0**-53, 0.0, 1.0,
            3 * 2.0**-3, 12345 * 2.0**-53]  # the last two: p * 2^53 integral
    assert all(r * 2.0**53 == int(r * 2.0**53) for r in rhos[-2:])
    for rho in rhos:
        mask = bernoullis(seed, n, rho)
        assert mask.dtype == bool
        assert np.array_equal(mask, u < rho), rho
    # the drawn uniform itself is not below rho = u_j, and is just above
    assert not bernoullis(seed, n, drawn)[1234]
    assert bernoullis(seed, n, math.nextafter(drawn, 1.0))[1234]


def test_derive_seed_distinct():
    seeds = {derive_seed(42, i, j) for i in range(20) for j in range(20)}
    assert len(seeds) == 400
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_stay_probabilities():
    q1, q0 = MarkovLabelModel(0.5, 0.8, 10).stay_probabilities()
    assert q1 == pytest.approx(0.9)
    assert q0 == pytest.approx(0.9)
    # acf1 = 0 is the iid parameterization: enter class 1 w.p. p from both states
    q1, q0 = MarkovLabelModel(0.58, 0.0, 10).stay_probabilities()
    assert q1 == pytest.approx(0.58)
    assert q0 == pytest.approx(0.42)


def test_infeasible_models_rejected():
    with pytest.raises(InvalidModel):
        MarkovLabelModel(1.0, 0.0, 10)  # degenerate prior
    with pytest.raises(InvalidModel):
        MarkovLabelModel(0.9, -0.5, 10)  # P(0->0) would go negative
    with pytest.raises(InvalidModel):
        MarkovLabelModel(0.5, 0.5, 0)


def test_iid_labels_reject_a_bad_prior_or_length():
    with pytest.raises(InvalidModel, match="p must be in"):
        gen_iid_labels(1.5, 10)
    with pytest.raises(InvalidModel, match="n must be >= 1"):
        gen_iid_labels(0.5, 0)


def test_a_length_that_is_not_an_integer_is_refused():
    for n in (2.5, 3.0, "3"):
        with pytest.raises(InvalidModel, match="^n must be an integer$"):
            gen_iid_labels(0.5, n)
        with pytest.raises(InvalidModel, match="^n must be an integer$"):
            MarkovLabelModel(0.4, 0.5, n)
    assert len(gen_iid_labels(0.5, np.int64(3))) == 3
    assert len(gen_markov_labels(MarkovLabelModel(0.4, 0.5, np.int32(3)))) == 3


def test_single_label():
    labels = gen_markov_labels(MarkovLabelModel(0.9, 0.5, 1, seed=1))
    assert labels in ([0], [1])


def test_markov_determinism():
    model = MarkovLabelModel(0.3, 0.6, 500, seed=77)
    assert gen_markov_labels(model) == gen_markov_labels(model)


def test_markov_lag1_autocorrelation():
    # symmetric chain with stay=0.9 has lag-1 autocorrelation 2*0.9-1 = 0.8;
    # 20-seed Monte Carlo gave sample r(1) in [0.796, 0.803]
    labels = gen_markov_labels(MarkovLabelModel(0.5, 0.8, 100_000, seed=3))
    assert autocorrelation(labels, 1)[1] == pytest.approx(0.8, abs=0.02)


def test_markov_stationary_frequency():
    bad = 0
    for seed in range(20):
        labels = gen_markov_labels(MarkovLabelModel(0.58, 0.5, 1_000_000,
                                                    seed=seed))
        if abs(sum(labels) / len(labels) - 0.58) >= 0.005:
            bad += 1
    assert bad <= 1  # >= 95% of seeds within 0.005


def test_symmetric_persistence_approaches_stay():
    for stay in (0.7, 0.9):
        labels = gen_markov_labels(
            MarkovLabelModel(0.5, 2 * stay - 1, 1_000_000, seed=11))
        assert abs(persistence_accuracy(labels) - stay) < 0.01


def test_iid_persistence_near_independence_bar():
    labels = gen_iid_labels(0.58, 45312, seed=5)
    assert persistence_accuracy(labels) == pytest.approx(0.5128, abs=0.01)


def test_iid_low_autocorrelation():
    # 25-seed Monte Carlo gave max |r(1)| = 0.0086 at this length
    for seed in range(5):
        labels = gen_iid_labels(0.58, 45312, seed=seed)
        assert abs(autocorrelation(labels, 1)[1]) < 0.01


def test_iid_matches_markov_iid_parameterization():
    a = gen_iid_labels(0.58, 1_000_000, seed=3)
    b = gen_markov_labels(MarkovLabelModel(0.58, 0.0, 1_000_000, seed=4))
    assert abs(persistence_accuracy(a) - persistence_accuracy(b)) < 0.005


def test_iid_degenerate_p_zero():
    labels = gen_iid_labels(0.0, 100, seed=1)
    assert labels == [0] * 100
    assert persistence_accuracy(labels) == 1.0


def test_csv_round_trip():
    labels = gen_markov_labels(MarkovLabelModel(0.4, 0.3, 50, seed=2))
    ds = parse_csv(io.StringIO(labels_to_csv(labels, seed=2)))
    assert [int(v) for v in ds.labels()] == labels


def test_arff_round_trip():
    labels = gen_iid_labels(0.5, 30, seed=9)
    ds = parse_arff(io.StringIO(labels_to_arff(labels)))
    assert [int(v) for v in ds.labels()] == labels
    assert ds.n_features == 1


OUT_OF_RANGE = "value index out of range for attribute 'label'"


def test_labels_to_csv_refuses_what_labels_to_arff_refuses():
    for labels in ([-1], [0, 2], [1, 0, -1]):
        for write in (labels_to_arff, labels_to_csv):
            with pytest.raises(ValueError, match=f"^{OUT_OF_RANGE}$"):
                write(labels)
    for labels in ([0.7], [1, 0.5], ["1"], np.array([2**32, 1]),
                   [float("nan"), 1], ["x"]):
        for write in (labels_to_arff, labels_to_csv):
            with pytest.raises(ValueError,
                               match="^labels must be the integers 0 and 1$"):
                write(labels)
    assert labels_to_csv([1.0, False]) == "label\n1\n0\n"
    # parse_csv refuses the header-only CSV this would write, as this does
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        labels_to_csv([])


written_labels = st.lists(st.integers(-2, 3), max_size=30)
maybe_seeds = st.none() | st.integers(-2**70, 2**70)


@given(written_labels, maybe_seeds)
@settings(max_examples=200, deadline=None)
def test_a_written_labels_csv_reads_back(labels, seed):
    try:
        text = labels_to_csv(labels, seed=seed)
    except EmptyStream:
        assert labels == []
        return
    except ValueError as exc:
        assert str(exc) == OUT_OF_RANGE and not set(labels) <= {0, 1}
        return
    assert parse_csv(io.StringIO(text)).labels() == list(map(str, labels))


@given(written_labels, maybe_seeds)
@settings(max_examples=200, deadline=None)
def test_a_written_labels_arff_reads_back(labels, seed):
    try:
        text = labels_to_arff(labels)
    except ValueError as exc:
        assert str(exc) == OUT_OF_RANGE and not set(labels) <= {0, 1}
        return
    if seed is not None:  # the comment synth --out x.arff puts first
        text = f"% seed={seed}\n" + text
    assert parse_arff(io.StringIO(text)).labels() == list(map(str, labels))
