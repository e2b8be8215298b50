import functools
import hashlib
import io
import itertools
import math
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SplitMix64, kernel_trace, oracle_window_hits

from streamaudit import (AttributeSchema, EmptyStream, Instance, InvalidRho,
                         NaiveBayesLearner, RestartPolicy, StreamDataset,
                         SweepConfig, audit_prediction_log, autocorrelation,
                         diagnose, exact_rho_curve, gen_markov_labels,
                         labels_to_csv, majority_baseline, parse_arff,
                         persistence_accuracy, prequential_eval, rho_sweep,
                         to_arff, write_prediction_log)
from streamaudit.baselines import SweepResult, _CodedStream
from streamaudit.rng import uniforms
from streamaudit.synth import MarkovLabelModel

label_streams = st.lists(st.sampled_from("DU"), min_size=1, max_size=40)
seeds = st.integers(0, 2**64 - 1)


def test_majority_hand_trace():
    assert kernel_trace(list("DUUDDD"), RestartPolicy(0.0)) == \
        list("DDUUDD")
    assert majority_baseline(list("DUUDDD")) == pytest.approx(4 / 6)


def test_majority_constant_stream():
    assert majority_baseline(list("AAAA")) == 1.0


def test_empty_stream_rejected():
    with pytest.raises(EmptyStream):
        majority_baseline([])
    with pytest.raises(EmptyStream):
        rho_sweep([], SweepConfig((0.5,), 1, 1))


def test_invalid_rho():
    with pytest.raises(InvalidRho):
        RestartPolicy(1.5, 0)
    with pytest.raises(InvalidRho):
        RestartPolicy(-0.1, 0)


def test_restart_rho1_hand_trace():
    assert kernel_trace(list("DUU"), RestartPolicy(1.0, 99)) == \
        ["D", "D", "U"]
    stream = _CodedStream(list("DUU"))
    assert stream.accuracy(stream.restarts(RestartPolicy(1.0, 99))) == \
        pytest.approx(2 / 3)


@given(label_streams, seeds)
@settings(max_examples=80, deadline=None)
def test_endpoint_identities(labels, seed):
    # exact identities for every stream and every seed
    stream = _CodedStream(labels)
    assert stream.accuracy(stream.restarts(RestartPolicy(1.0, seed))) == \
        persistence_accuracy(labels)
    assert stream.accuracy(stream.restarts(RestartPolicy(0.0, seed))) == \
        majority_baseline(labels)


@given(label_streams, seeds, st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_restart_determinism(labels, seed, rho):
    policy = RestartPolicy(rho, seed)
    first, second = _CodedStream(labels), _CodedStream(labels)
    assert first.accuracy(first.restarts(policy)) == \
        second.accuracy(second.restarts(policy))


def test_sweep_deterministic_rows_at_rho0():
    result = rho_sweep(list("DUDUDDU") * 10,
                       SweepConfig((0.0,), repetitions=3, master_seed=1))
    accs = result.accuracies(0.0)
    assert len(accs) == 3 and len(set(accs)) == 1


def test_sweep_rows_and_summary():
    labels = gen_markov_labels(MarkovLabelModel(0.6, 0.8, 3000, seed=5))
    labels = ["UP" if x else "DOWN" for x in labels]
    config = SweepConfig((0.0, 0.5, 1.0), repetitions=4, master_seed=7)
    result = rho_sweep(labels, config)
    assert len(result.rows) == 12
    assert all(0.0 <= acc <= 1.0 for _, _, acc in result.rows)
    summary = result.summary()
    assert [row[0] for row in summary] == [0.0, 0.5, 1.0]
    for rho, mean, lo, hi, sd in summary:
        assert lo <= mean <= hi and sd >= 0
    # autocorrelated stream: persistence end beats majority end
    assert summary[-1][1] > summary[0][1]


def test_summary_sums_with_a_left_fold():
    # nine 0.1s and a 0.2 added left to right have a mean of
    # 0.10999999999999999; a compensated sum (math.fsum, or Python 3.12's
    # sum()) gives 0.11000000000000001
    accs = [0.1] * 9 + [0.2]
    config = SweepConfig((0.5,), repetitions=10)
    result = SweepResult(tuple((0.5, rep, a) for rep, a in enumerate(accs)),
                         config)
    [(rho, mean, lo, hi, sd)] = result.summary()
    assert mean == functools.reduce(operator.add, accs) / 10
    assert repr(mean) == "0.10999999999999999"
    assert repr(math.fsum(accs) / 10) == "0.11000000000000001"
    assert (rho, lo, hi) == (0.5, 0.1, 0.2)


def test_summary_of_equal_accuracies_is_their_value():
    # ten 0.1s folded left sum to 0.9999999999999999, a mean below them all
    config = SweepConfig((0.5,), repetitions=10)
    result = SweepResult(tuple((0.5, rep, 0.1) for rep in range(10)), config)
    assert result.summary() == [(0.5, 0.1, 0.1, 0.1, 0.0)]


def test_summary_of_the_largest_grid_takes_one_pass():
    # the CLI's cap of 10,001 rho x 10 reps, rows shuffled across rho: a
    # rescan of every row per rho makes 10**9 comparisons, one pass 10**5
    grid = tuple(i / 10000 for i in range(10001))
    draw = random.Random(1)
    rows = [(rho, rep, draw.random()) for rho in grid for rep in range(10)]
    draw.shuffle(rows)
    rows.append((2.0, 0, 0.5))  # a row off the grid is left out
    result = SweepResult(tuple(rows), SweepConfig(grid, 10))
    start = time.perf_counter()
    summary = result.summary()
    assert time.perf_counter() - start < 5.0
    # the reference: each rho's accuracies in row order, folded left
    by_rho = itertools.groupby(sorted(rows[:-1], key=operator.itemgetter(0)),
                               key=operator.itemgetter(0))
    expected = []
    for rho, group in by_rho:
        accs = [acc for _, _, acc in group]
        mean = functools.reduce(operator.add, accs) / len(accs)
        var = functools.reduce(operator.add,
                               [(a - mean) ** 2 for a in accs]) / len(accs)
        expected.append((rho, mean, min(accs), max(accs), math.sqrt(var)))
    assert summary == expected


def test_summary_names_the_first_grid_rho_without_rows():
    # rows off the grid are still dropped; a grid rho with none is an error
    rows = ((0.5, 0, 0.7), (2.0, 0, 0.5))
    result = SweepResult(rows, SweepConfig((0.5, 0.6, 0.7)))
    with pytest.raises(ValueError, match=r"^no rows for rho 0\.6 of the grid$"):
        result.summary()
    assert SweepResult(rows, SweepConfig((0.5,))).summary() == \
        [(0.5, 0.7, 0.7, 0.7, 0.0)]


def test_sweep_config_rejects_bad_grids_and_repetitions():
    for grid in ((0.0, 1.5), (-0.1, 0.5)):
        with pytest.raises(InvalidRho):
            SweepConfig(grid)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig((0.5, 0.5))
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        SweepConfig((0.5,), repetitions=0)


def test_sweep_config_refuses_a_repetition_count_that_is_not_an_integer():
    for reps in (2.5, 2.0, "2"):
        with pytest.raises(ValueError,
                           match="^repetitions must be an integer$"):
            SweepConfig((0.5,), reps)
    assert SweepConfig((0.5,), np.int64(2)).repetitions == 2


def test_each_rho_has_one_spelling():
    # an int or -0.0 grid value is held, and written, as the float rho
    labels = list("DUUDDUDUDDDUUD") * 5
    floats = rho_sweep(labels, SweepConfig((0.0, 0.5, 1.0), 2))
    for grid in ((0, 0.5, 1), (-0.0, 0.5, True)):
        config = SweepConfig(grid, 2)
        assert [repr(r) for r in config.rho_grid] == ["0.0", "0.5", "1.0"]
        result = rho_sweep(labels, config)
        assert result.to_csv() == floats.to_csv()
        assert result.summary_to_csv() == floats.summary_to_csv()
    assert repr(RestartPolicy(-0.0).rho) == repr(RestartPolicy(0).rho) == "0.0"
    with pytest.raises(TypeError):
        RestartPolicy("0.5")
    with pytest.raises(TypeError):
        SweepConfig(("0.5",))


def test_sweep_reproducible_and_order_independent():
    labels = list("DUUDDUDUDDDUUD") * 5
    config = SweepConfig((0.2, 0.8), repetitions=3, master_seed=99)
    a = rho_sweep(labels, config)
    b = rho_sweep(labels, config)
    assert a.rows == b.rows
    # each cell depends only on its own derived seed, not on sweep order
    from streamaudit.rng import derive_seed
    rho, rep, acc = a.rows[4]  # rho index 1, rep 1
    stream = _CodedStream(labels)
    alone = stream.accuracy(stream.restarts(
        RestartPolicy(rho, derive_seed(99, 1, 1))))
    assert acc == alone


def test_sweep_csv_export():
    labels = list("DUDU") * 5
    result = rho_sweep(labels, SweepConfig((0.0, 1.0), 2, master_seed=3))
    lines = result.to_csv().splitlines()
    assert lines[0] == "# master_seed=3"
    assert lines[1] == "rho,rep,accuracy"
    assert len(lines) == 6
    summary_lines = result.summary_to_csv().splitlines()
    assert summary_lines[1] == "rho,mean,min,max,stddev"
    assert len(summary_lines) == 4


def test_strictly_increasing_grid_required():
    with pytest.raises(ValueError):
        SweepConfig((0.5, 0.5), 2, 1)


def test_trace_rescoring_audit_mode():
    labels = [random.Random(5).choice("DU") for _ in range(200)]
    policy = RestartPolicy(0.3, 77)
    trace = kernel_trace(labels, policy)
    rescored = sum(p == y for p, y in zip(trace, labels)) / len(labels)
    stream = _CodedStream(labels)
    assert rescored == stream.accuracy(stream.restarts(policy))


# ---------------------------------------------------------------------------
# independent brute-force simulator (used again by acceptance criterion 9)

def oracle_majority_trace(labels, cold_start):
    preds = []
    for t in range(len(labels)):
        seen = labels[:t]
        if not seen:
            preds.append(cold_start)
            continue
        counts = {}
        for lab in seen:
            counts[lab] = counts.get(lab, 0) + 1
        top = max(counts.values())
        tied = [lab for lab, c in counts.items() if c == top]
        # most recently observed among the tied classes
        for lab in reversed(seen):
            if lab in tied:
                preds.append(lab)
                break
    return preds


def oracle_restart_trace(labels, rho, seed, cold_start):
    rng = SplitMix64(seed)
    restarts = (rho > 0.0 and rng.bernoulli(rho) for _ in labels)
    return oracle_window_trace(labels, restarts, cold_start)


def oracle_window_trace(labels, restarts, cold_start):
    """The restart rule for a given restart pattern: restarts yields, after
    each instance in turn, whether the window restarts there."""
    preds = []
    window = []
    seen = []
    for t, label in enumerate(labels):
        if t == 0:
            preds.append(cold_start)
        elif not window:
            preds.append(seen[-1])
        else:
            counts = {}
            for lab in window:
                counts[lab] = counts.get(lab, 0) + 1
            top = max(counts.values())
            tied = [lab for lab, c in counts.items() if c == top]
            for lab in reversed(seen):
                if lab in tied:
                    preds.append(lab)
                    break
        window.append(label)
        seen.append(label)
        if next(restarts):
            window = [label]
    return preds


def test_fast_paths_match_bruteforce_oracle():
    rng = random.Random(20240317)
    # n = 1 explicitly
    for n in [1, 1] + [rng.randrange(1, 50) for _ in range(100)]:
        labels = [rng.choice("DUX") for _ in range(n)]
        rho = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        seed = rng.randrange(2**64)
        assert kernel_trace(labels, RestartPolicy(0.0)) == \
            oracle_majority_trace(labels, labels[0])
        assert kernel_trace(labels, RestartPolicy(rho, seed)) == \
            oracle_restart_trace(labels, rho, seed, labels[0])


def test_kernel_matches_oracle_on_1_to_6_classes():
    # round-robin streams tie the window counts at almost every step, so
    # they exercise the last-seen rule
    rng = random.Random(20261018)
    cases = [(["A"], 0.0), (["A"], 1.0), (["A", "B"], 0.5), (["B", "B"], 1.0)]
    for _ in range(400):
        classes = "ABCDEF"[:rng.randint(1, 6)]
        n = rng.choice([1, 2, rng.randrange(3, 80)])
        if rng.random() < 0.3:
            offset = rng.randrange(len(classes))
            labels = [classes[(t + offset) % len(classes)] for t in range(n)]
        else:
            labels = [rng.choice(classes) for _ in range(n)]
        cases.append((labels, rng.choice([0.0, 1.0, rng.random()])))
    cases.append((["C"] * 30, 0.4))
    for labels, rho in cases:
        seed = rng.randrange(2**64)
        assert kernel_trace(labels, RestartPolicy(0.0)) == \
            oracle_majority_trace(labels, labels[0])
        assert kernel_trace(labels, RestartPolicy(rho, seed)) == \
            oracle_restart_trace(labels, rho, seed, labels[0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_with_explicit_starts_matches_oracle(data):
    # the kernel takes a restart pattern, the draws after instances
    # 0..n-2; half the streams hold two classes, either one first
    if data.draw(st.booleans()):
        pair = data.draw(st.sampled_from(("AB", "BA")))
        labels = [pair[0]] + data.draw(st.lists(st.sampled_from(pair),
                                                max_size=59))
        if pair[1] not in labels:
            labels.insert(data.draw(st.integers(1, len(labels))), pair[1])
    else:
        classes = "ABCDEF"[:data.draw(st.integers(1, 6))]
        labels = data.draw(st.lists(st.sampled_from(classes), min_size=1,
                                    max_size=60))
    n = len(labels)
    restarts = data.draw(st.one_of(
        st.just([False] * (n - 1)), st.just([True] * (n - 1)),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    stream = _CodedStream(labels)
    expected = oracle_window_trace(labels, iter(restarts + [False]),
                                   labels[0])

    def trace(restarts):  # the kernel's codes as labels
        return [stream.classes[c] for c in stream.trace(restarts).tolist()]

    assert trace(np.array(restarts, dtype=bool)) == expected
    if not any(restarts):
        assert trace(None) == expected
    if all(restarts):
        assert trace(1) == expected


def linear_majority_trace(labels):
    """Incremental majority in one pass: running counts and last-seen
    indices, the top (count, last seen) pair predicting the next label."""
    counts, last, preds = {}, {}, [labels[0]]
    for t, label in enumerate(labels[:-1]):
        counts[label] = counts.get(label, 0) + 1
        last[label] = t
        preds.append(max(counts, key=lambda c: (counts[c], last[c])))
    return preds


def width_streams(j, seed):
    # s = n.bit_length() steps up at n = 2**j, so the key's index field
    # widens there; constant, alternating and random labels put a count
    # at each bit the mask must keep
    rng = random.Random(seed)
    for n in (2**j - 1, 2**j, 2**j + 1):
        yield ["A"] * n
        yield ["AB"[t % 2] for t in range(n)]
        yield [rng.choice("ABC") for _ in range(n)]


@pytest.mark.parametrize("j", range(1, 7))
def test_kernel_matches_oracle_where_the_key_widens(j):
    for labels in width_streams(j, j):
        assert kernel_trace(labels, RestartPolicy(0.0)) == \
            oracle_majority_trace(labels, labels[0])
        for rho in (0.5, 1.0):
            assert kernel_trace(labels, RestartPolicy(rho, j)) == \
                oracle_restart_trace(labels, rho, j, labels[0])


def test_kernel_at_two_to_the_16_matches_the_oracles():
    for n in (2**16 - 1, 2**16, 2**16 + 1):
        labels = sticky_stream(n, "ABC", 0.8, n)
        assert kernel_trace(labels, RestartPolicy(0.5, n)) == \
            oracle_restart_trace(labels, 0.5, n, labels[0])
        assert kernel_trace(labels, RestartPolicy(1.0, n)) == \
            labels[:1] + labels[:-1]
        stream = _CodedStream(labels)
        assert stream.accuracy(stream.restarts(RestartPolicy(1.0, n))) == \
            persistence_accuracy(labels)
        assert kernel_trace(labels, RestartPolicy(0.0)) == \
            linear_majority_trace(labels)


def retained_stream(labels):
    tracemalloc.start()
    try:
        stream = _CodedStream(labels)
        return stream, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_kernel_retains_one_key_table():
    # 8 bytes per class and label for the keys, 4 per label for the codes
    labels = sticky_stream(45312, "ABC", 0.97, 7)
    stream, retained = retained_stream(labels)
    k, n = len(stream.classes), len(labels)
    assert k == 3
    assert retained <= 8 * k * n + 4 * n + 64 * 1024
    # two classes: 8 bytes per label each for rise and the packed row
    labels = markov_08()
    stream, retained = retained_stream(labels)
    n = len(labels)
    assert len(stream.classes) == 2
    assert retained <= 16 * n + 4 * n + 64 * 1024


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_runs_make_no_zero_fill_or_index_copy():
    # a binary stream: its build holds the codes, the packed row, rise and
    # an int64 index; a rho = 0 run holds the bool predictions and their
    # bool hits; a run with a restart mask or a fixed window one int64 row
    # besides them, and with the mask; drawing the mask holds two uint64
    # rows; a sweep holds the codes, rise and packed and one cell
    labels = markov_08()
    n = len(labels)
    slack = 64 * 1024
    assert traced_peak(lambda: _CodedStream(labels)) <= 30 * n + slack
    stream = _CodedStream(labels)
    assert len(stream.classes) == 2
    assert traced_peak(stream.accuracy) <= 2 * n + slack
    restarts = stream.restarts(RestartPolicy(0.5, 7))
    assert traced_peak(lambda: stream.accuracy(restarts)) <= 10 * n + slack
    assert traced_peak(lambda: stream.accuracy(
        stream.restarts(RestartPolicy(0.5, 7)))) <= 16 * n + slack
    assert traced_peak(lambda: stream.accuracy(
        stream.restarts(RestartPolicy(1.0)))) <= 9 * n + slack
    assert traced_peak(lambda: rho_sweep(labels, SweepConfig(GRID, 10))) \
        <= 36 * n + slack


def test_sweep_runs_each_draw_free_rho_once(monkeypatch):
    # rho = 0 and rho = 1 draw nothing, so 9 x 10 + 2 kernel runs
    calls = []
    predict = _CodedStream.predict

    def counted(self, restarts=None):
        calls.append(restarts)
        return predict(self, restarts)

    monkeypatch.setattr(_CodedStream, "predict", counted)
    labels = sticky_stream(2000, "ABC", 0.8, 7)
    result = rho_sweep(labels, SweepConfig(GRID, 10, master_seed=42))
    assert len(calls) == 92 and len(result.rows) == 110
    assert result.accuracies(0.0) == [majority_baseline(labels)] * 10
    assert result.accuracies(1.0) == [persistence_accuracy(labels)] * 10


# ---------------------------------------------------------------------------
# exact expected accuracy of the restart classifier on iid labels (used again
# by acceptance criterion 6)

def iid_window_accuracy(p, max_window):
    """a[w] for w = 0 .. max_window: the chance that the window majority of
    w iid Bernoulli(p) labels, ties to the last of them, is the next label.

    With S_w ~ Bin(w, p) the window predicts class 1 with probability
    q(w) = P(S_w > w/2) + P(S_w = w/2) / 2: given a tie, the last label of
    the window is either class equally often, by exchangeability. Then
    a(w) = p q(w) + (1 - p) (1 - q(w)). With e_m = P(S_2m = m) and
    G_m = P(S_2m > m), adding two labels at a time gives
        q(2m) = G_m + e_m / 2,        q(2m + 1) = G_m + p e_m,
        e_(m+1) = e_m p (1 - p) 2 (2m + 1) / (m + 1),
        G_(m+1) = G_m + e_m p (p - (1 - p) m / (m + 1)).
    """
    half = max_window // 2 + 1
    m = np.arange(half - 1, dtype=float)
    e = np.cumprod(np.concatenate(([1.0],
                                   p * (1 - p) * 2 * (2 * m + 1) / (m + 1))))
    g = np.concatenate(([0.0],
                        np.cumsum(e[:-1] * p * (p - (1 - p) * m / (m + 1)))))
    q = np.empty(2 * half)
    q[0::2] = g + e / 2
    q[1::2] = g + p * e
    q = q[:max_window + 1]
    return p * q + (1 - p) * (1 - q)


def iid_expected_accuracy(p, n, rho):
    """Exact expected accuracy of the restart classifier on n iid
    Bernoulli(p) labels, the first instance predicted by its own label.

    The t = 0 prediction is always right. For t >= 1 the window holds the
    last W labels: W = k in [1, t - 1] with probability rho (1 - rho)^(k - 1)
    (the last restart came after instance t - k), and W = t with probability
    (1 - rho)^(t - 1) (no restart after instances 1 .. t - 1; one after
    instance 0 starts the window at 0 all the same). The window does not
    depend on the label it predicts, so instance t is right with
    probability E a(W).
    """
    a = iid_window_accuracy(p, n - 1)[1:]  # a(1) .. a(n - 1)
    k = np.arange(1, n)
    stay = (1.0 - rho) ** (k - 1.0)
    # sum over t of E a(W_t): a window of length k < t is counted once for
    # each of the n - 1 - k instances t > k; W = t once, at t
    total = 1.0 + np.sum((n - 1 - k) * rho * stay * a) + np.sum(stay * a)
    return float(total / n)


def test_iid_window_accuracy_matches_binomial_sums():
    for p in (0.3, 0.5, 0.58):
        a = iid_window_accuracy(p, 120)
        for w in range(1, 121):
            pmf = [math.comb(w, j) * p**j * (1 - p)**(w - j)
                   for j in range(w + 1)]
            q = sum(pmf[j] for j in range(w + 1) if 2 * j > w) + \
                sum(pmf[j] for j in range(w + 1) if 2 * j == w) / 2
            assert a[w] == pytest.approx(p * q + (1 - p) * (1 - q), abs=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("p", [0.3, 0.58])
def test_iid_expectation_matches_enumeration(p, rho):
    # every label sequence and every restart pattern, weighted by its
    # probability and scored by the rule of oracle_restart_trace
    for n in range(1, 9):
        expected = 0.0
        for labels in itertools.product((0, 1), repeat=n):
            ones = sum(labels)
            p_labels = p**ones * (1 - p)**(n - ones)
            # the draw after the last instance changes nothing
            for restarts in itertools.product((False, True), repeat=n - 1):
                fired = sum(restarts)
                weight = p_labels * rho**fired * (1 - rho)**(n - 1 - fired)
                if weight == 0.0:
                    continue
                preds = oracle_window_trace(labels, iter(restarts + (False,)),
                                            labels[0])
                expected += weight * sum(map(operator.eq, preds, labels)) / n
        assert iid_expected_accuracy(p, n, rho) == \
            pytest.approx(expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 1000, 45312])
def test_iid_expectation_at_rho1_is_persistence(n):
    for p in (0.3, 0.58):
        bar = p**2 + (1 - p)**2
        assert iid_expected_accuracy(p, n, 1.0) == \
            pytest.approx((1 + (n - 1) * bar) / n, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# exact expected accuracy of the restart classifier on the stream at hand,
# from one window-length hit profile

def window_hits(labels, max_window):
    """H[L] for L = 1 .. max_window from oracle_window_hits, the hits when
    the window for t holds the last L labels. H[0] is unused."""
    return [0] + [oracle_window_hits(labels, length)
                  for length in range(1, max_window + 1)]


def exact_accuracy(hits, n, rho):
    """The restart classifier's expected accuracy from window_hits: the
    window for t has length L < t with probability rho (1 - rho)^(L - 1)
    and is the whole history with probability (1 - rho)^(t - 1), so

        n E(rho) = 1 + rho sum_{L < Lmax} (1 - rho)^(L - 1) H_L
                     + (1 - rho)^(Lmax - 1) H_Lmax,

    exact once Lmax >= n - 1 and within (1 - rho)^(Lmax - 1) of it
    otherwise. Horner's rule in Python floats, longest window first."""
    total = float(hits[-1])
    for h in reversed(hits[1:-1]):
        total = rho * h + (1.0 - rho) * total
    return (1.0 + total) / n


def test_exact_accuracy_matches_enumeration_of_every_restart_pattern():
    rng = random.Random(20261020)
    grid = (0.0, 0.13, 0.5, 0.91, 1.0)
    for _ in range(60):
        classes = "ABC"[:rng.randint(1, 3)]
        n = rng.randint(1, 8)
        labels = [rng.choice(classes) for _ in range(n)]
        hits = window_hits(labels, max(2, n - 1))
        assert _CodedStream(labels).window_hits(max(2, n - 1)) == hits[1:]
        persistence_hits = round(persistence_accuracy(labels) * n) - 1
        # a two-label window's tie goes to the more recent label
        assert hits[1] == hits[2] == persistence_hits
        curve = exact_rho_curve(labels, grid)
        assert [rho for rho, _, _ in curve] == list(grid)
        for rho, exact, omitted in curve:
            expected = 0.0
            # the draw after the last instance changes nothing
            for restarts in itertools.product((False, True), repeat=n - 1):
                fired = sum(restarts)
                weight = rho**fired * (1 - rho)**(n - 1 - fired)
                preds = oracle_window_trace(labels, iter(restarts + (False,)),
                                            labels[0])
                expected += weight * sum(map(operator.eq, preds, labels)) / n
            assert exact_accuracy(hits, n, rho) == \
                pytest.approx(expected, rel=0, abs=1e-12)
            assert exact == pytest.approx(expected, rel=0, abs=1e-12)
            assert omitted == 0.0  # Lmax = n - 1 here


def markov_08():
    return gen_markov_labels(MarkovLabelModel(0.42, 0.8, 45312, seed=42))


def test_window_hits_match_the_oracle_at_every_length():
    rng = random.Random(20261021)
    for _ in range(150):
        classes = "ABCD"[:rng.randint(1, 4)]
        n = rng.choice([1, 2, 3, rng.randrange(4, 70)])
        labels = [rng.choice(classes) for _ in range(n)]
        # L = n - 1 and L = n are both the whole history
        assert _CodedStream(labels).window_hits(n) == \
            window_hits(labels, n)[1:]


@pytest.mark.parametrize("make_labels", [
    markov_08, lambda: sticky_stream(45312, "ABC", 0.97, 7),
], ids=["markov-0.8", "sticky-3class"])
def test_window_hits_match_the_oracle_on_long_streams(make_labels):
    labels = make_labels()
    hits = _CodedStream(labels).window_hits(263)
    for length in (1, 2, 3, 50, 263):
        assert hits[length - 1] == oracle_window_hits(labels, length)


def test_exact_curve_on_markov_labels():
    labels = markov_08()
    n = len(labels)
    stream = _CodedStream(labels)
    max_window = math.ceil(math.log(1e-12) / math.log(1 - 0.1))  # 263
    hits = [0] + stream.window_hits(max_window)
    assert hits[1] == hits[2] == round(persistence_accuracy(labels) * n) - 1
    curve = exact_rho_curve(labels, (0.1, 0.2, 0.3, 0.5))
    for (rho, exact, omitted), value in zip(
            curve, (0.7677, 0.8236, 0.8531, 0.8834)):
        assert exact == exact_accuracy(hits, n, rho)
        assert round(exact, 4) == value
        assert omitted == (1.0 - rho) ** (max_window - 1)
    assert curve[0][2] <= 1e-12 / (1.0 - 0.1)


@pytest.mark.parametrize("make_labels", [
    markov_08, lambda: sticky_stream(45312, "ABC", 0.97, 7),
    lambda: ["A", "B", "B"], lambda: ["A"],
], ids=["markov-0.8", "sticky-3class", "three-labels", "one-label"])
@pytest.mark.parametrize("grid", [(0.0, 1.0), (0.0, 0.1, 0.5, 1.0)])
def test_exact_curve_endpoints_are_the_bars(make_labels, grid):
    labels = make_labels()
    curve = exact_rho_curve(labels, grid)
    assert curve[0] == (0.0, majority_baseline(labels), 0.0)
    assert curve[-1] == (1.0, persistence_accuracy(labels), 0.0)


def test_exact_curve_takes_the_sweep_grid_rule():
    labels = markov_08()[:300]
    grid = (0.0, 0.1, 0.5, 1.0)
    assert exact_rho_curve(labels, (rho for rho in grid)) == \
        exact_rho_curve(labels, grid) == exact_rho_curve(labels, list(grid))
    for grid in ((0.5, 0.1), (0.5, 0.5)):
        with pytest.raises(ValueError,
                           match="^rho grid must be strictly increasing$"):
            SweepConfig(grid)
        with pytest.raises(ValueError,
                           match="^rho grid must be strictly increasing$"):
            exact_rho_curve(labels, grid)


def test_exact_curve_at_a_rho_whose_complement_rounds_to_1():
    # 1 - 1e-17 == 1.0, so ln(1 - rho_min) is 0 and Lmax is n - 1
    labels = markov_08()[:300]
    (rho, expected, omitted), _ = exact_rho_curve(labels, (1e-17, 0.5))
    assert (rho, expected, omitted) == (1e-17, majority_baseline(labels), 0.0)


def test_exact_curve_rejects_rho_off_the_unit_interval():
    for grid in ((0.5, 1.5), (-0.1,), (float("nan"),)):
        with pytest.raises(InvalidRho):
            exact_rho_curve(["A", "B"], grid)
    with pytest.raises(EmptyStream):
        exact_rho_curve([], (0.5,))


@pytest.mark.parametrize("make_labels", [
    markov_08, lambda: sticky_stream(45312, "ABC", 0.97, 7),
], ids=["markov-0.8", "sticky-3class"])
def test_sweep_means_lie_within_4_standard_errors_of_the_exact_curve(
        make_labels):
    # no other test checks the sweep's interior on autocorrelated labels
    labels = make_labels()
    n = len(labels)
    stream = _CodedStream(labels)
    max_window = math.ceil(math.log(1e-12) / math.log(1 - 0.1))  # 263
    hits = [0] + stream.window_hits(max_window)
    assert hits[1] == hits[2] == round(persistence_accuracy(labels) * n) - 1
    grid, reps = (0.1, 0.2, 0.3, 0.5), 50
    result = rho_sweep(labels, SweepConfig(grid, reps, master_seed=42))
    for rho, mean, _, _, sd in result.summary():
        z = (mean - exact_accuracy(hits, n, rho)) / (sd / math.sqrt(reps - 1))
        assert abs(z) <= 4, (rho, z)


# ---------------------------------------------------------------------------
# byte-identity gate: sha256 of the sweep CSVs, computed with the per-instance
# Python restart loop that preceded the vectorised kernel

GRID = tuple(round(0.1 * i, 10) for i in range(11))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sticky_stream(n, classes, stay, seed):
    """Keep the previous label with probability stay, else draw uniformly."""
    u = uniforms(seed, 2 * n).tolist()
    out = [classes[int(u[1] * len(classes))]]
    for t in range(1, n):
        out.append(out[-1] if u[2 * t] < stay
                   else classes[int(u[2 * t + 1] * len(classes))])
    return out


GOLDEN_STREAMS = {
    "markov-45312":
        lambda: gen_markov_labels(MarkovLabelModel(0.42, 0.7, 45312, seed=42)),
    "sticky-3class-2000": lambda: sticky_stream(2000, "ABC", 0.8, 7),
    "sticky-6class-3000": lambda: sticky_stream(3000, "ABCDEF", 0.7, 11),
}


@pytest.mark.parametrize("stream, rows_sha, summary_sha", [
    ("markov-45312",
     "3fa34645e2cf8a6e949afa958172cce45df8efe0dd10acb6af5f377a21a38a69",
     "b8f4f3aee50d0c072fe3daacc938797ba017bb4cbb2a3471b930fd2c936ee085"),
    ("sticky-3class-2000",
     "fef25046810e1ff8e7a772f36857c0abb0a99c6123b761a6fbf5ea79966fd160",
     "768a25fb2bf189aa3e20e5e169de673a939307e1cb633e7684207b7479d8441b"),
    ("sticky-6class-3000",
     "87637aa79966de9e2c27390831041e69f4bd2ad4f2c2fe37748ab4f9b7a50e49",
     "413ee1728e76ba924019c16bf7e724b04d235a697a98b75fd557c6916461e041"),
], ids=list(GOLDEN_STREAMS))
def test_sweep_csv_golden_sha256(stream, rows_sha, summary_sha):
    result = rho_sweep(GOLDEN_STREAMS[stream](),
                       SweepConfig(GRID, 10, master_seed=42))
    assert _sha256(result.to_csv()) == rows_sha
    assert _sha256(result.summary_to_csv()) == summary_sha


@pytest.mark.parametrize("stream", list(GOLDEN_STREAMS))
def test_sweep_summary_endpoints_are_the_bars(stream):
    # ten equal accuracies folded left and divided by 10 need not give
    # the value back; the summary's rho = 0 and rho = 1 rows do
    labels = GOLDEN_STREAMS[stream]()
    summary = rho_sweep(labels, SweepConfig(GRID, 10, 42)).summary()
    majority, persistence = (majority_baseline(labels),
                             persistence_accuracy(labels))
    assert summary[0] == (0.0, majority, majority, majority, 0.0)
    assert summary[-1] == (1.0, persistence, persistence, persistence, 0.0)


# byte-identity gate for the column-wise writer and the memoised naive
# Bayes: sha256 of to_arff, of the prequential report and of the prediction
# trace on an Electricity-shaped stream, computed with the row-at-a-time
# writer and the unmemoised learner that preceded them

def electricity_shaped(n=45312, seed=42):
    """A numeric date, a 7-value nominal day, six numeric features (the
    last unrounded, the others leaning on the label) and UP/DOWN Markov
    labels."""
    labels = gen_markov_labels(MarkovLabelModel(0.42, 0.7, n, seed=seed))
    y = np.asarray(labels, dtype=np.float64)
    u = uniforms(seed + 1, 6 * n).reshape(6, n)
    t = np.arange(n)
    numeric = ([np.round(t / (n - 1), 6)]
               + [np.round(0.2 + 0.5 * u[j] + 0.01 * j * y, 6)
                  for j in range(5)]
               + [u[5] - 0.02 * y])
    day = ((t // 48) % 7).tolist()
    schema = ((AttributeSchema("date", None),
               AttributeSchema("day", tuple(str(d) for d in range(1, 8))))
              + tuple(AttributeSchema(f"x{j}", None) for j in range(1, 7))
              + (AttributeSchema("class", ("UP", "DOWN")),))
    cols = [c.tolist() for c in numeric]
    instances = tuple(
        Instance((date, d) + tuple(rest), 0 if lab else 1)
        for date, d, *rest, lab in zip(cols[0], day, *cols[1:], labels))
    return StreamDataset(schema, instances, len(schema) - 1)


def test_electricity_shaped_golden_sha256():
    ds = electricity_shaped()
    text = to_arff(ds)
    assert _sha256(text) == \
        "0964fe976ae41bb99c0fa3790c2fbd45ef48ff2ecc176998885128f9a3e9ea3f"
    assert parse_arff(io.StringIO(text)) == ds
    report = prequential_eval(NaiveBayesLearner(ds), ds)
    assert _sha256(report.to_json()) == \
        "aab30c621b18091b833fe4f11646107f5804bdb90038882b2a3954b3c81db9d2"
    nb = NaiveBayesLearner(ds)
    trace = []
    for features, code in ds._rows():
        trace.append(nb.predict(features))
        nb.update(features, ds.class_values[code])
    assert _sha256("\n".join(trace)) == \
        "febaea1b0a6741508d861f872dad7751d07586f62e49e22fbb1b8d425cf726a9"


# byte-identity gate for the shared CSV writer and the shared confusion
# scoring: sha256 of every label-derived output on an Electricity-shaped
# stream, computed with the per-output writers that preceded them. n = 2**15
# made the label mean a dyadic fraction, so the float ACF of those writers
# was exact too and the exact integer ACF gives the same bytes.

def test_electricity_shaped_writers_golden_sha256():
    n, seed = 2 ** 15, 42
    ds = electricity_shaped(n, seed)
    labels = ds.labels()
    assert _sha256(diagnose(ds, max_lag=96).to_json()) == \
        "e0f922af94751a6adc6195cf86977992d97890f3ba8b6a470364e34f196df6ae"
    acf = autocorrelation(labels, 96)
    assert _sha256(acf.to_csv()) == \
        "a24bb489a7e4fa2514cb6342f9898f7b09c7ad23e37288826f83c76e7438789e"
    codes = gen_markov_labels(MarkovLabelModel(0.42, 0.7, n, seed=seed))
    assert _sha256(labels_to_csv(codes, seed=seed)) == \
        "92c2d6d02a72877e8255f65a6ac087c4570fa65e9cfa514db0b23e77b2501cc9"
    nb = NaiveBayesLearner(ds)
    log = []
    for (features, _), true in zip(ds._rows(), labels):
        log.append((true, nb.predict(features)))
        nb.update(features, true)
    assert _sha256(write_prediction_log(log)) == \
        "07dd92da5e79d6c4028b086654eceadb0f446cb0da9fba3b68c0422a9988101a"
    verdict, report = audit_prediction_log(log, labels)
    assert _sha256(verdict.to_json(n=report.n, confusion=report.confusion)) \
        == "028719584cbac70c2dfb0afa1ee0929c0cfec88497caa982282a6a1c9ee1f49f"
    assert _sha256(report.to_json()) == \
        "c43575578b2d2acc23cdbb20e1939e517e1550aea3b0d9f10a10ae15870f0833"
