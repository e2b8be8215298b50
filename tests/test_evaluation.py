import copy
import csv
import io
import json
import math
import pickle
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (MajorityLearner, OracleNaiveBayes, PersistenceLearner,
                     RandomRestartLearner)

from streamaudit import (AttributeSchema, AuditVerdict, EmptyStream,
                         Instance, LabelMismatch,
                         NaiveBayesLearner, ParseError, RestartPolicy,
                         SchemaMismatch, ScoreOverflow, StreamAuditError,
                         StreamDataset, Verdict,
                         audit_accuracy, audit_prediction_log,
                         gen_iid_labels, gen_markov_labels,
                         majority_baseline, parse_arff, parse_csv,
                         persistence_accuracy, prequential_eval,
                         random_restart_run, random_restart_trace,
                         read_prediction_log, write_prediction_log)
from streamaudit import evaluation
from streamaudit.evaluation import _naive_bayes_scores, _naive_bayes_trace
from streamaudit.synth import MarkovLabelModel, labels_to_dataset


def numeric_dataset(points, class_values=("A", "B")):
    schema = (AttributeSchema("x", None),
              AttributeSchema("cls", tuple(class_values)))
    instances = tuple(Instance((float(x),), class_values.index(c))
                      for x, c in points)
    return StreamDataset(schema, instances, 1)


def prediction_trace(learner, ds):
    trace = []
    for features, code in ds._rows():
        trace.append(learner.predict(features))
        learner.update(features, ds.class_values[code])
    return trace


def run_calls(learner, calls):
    """The predictions of learner on calls: ("predict", features),
    ("update", features, label) or ("reset",)."""
    out = []
    for name, *args in calls:
        if name == "predict":
            out.append(learner.predict(*args))
        else:
            getattr(learner, name)(*args)
    return out


def walk(ds, rows):
    """A prequential pass over the given rows of ds."""
    stream, calls = list(ds._rows()), []
    for t in rows:
        features, code = stream[t]
        calls += [("predict", features),
                  ("update", features, ds.class_values[code])]
    return calls


# NaiveBayesLearner predicts only the rows of its own stream, so a probe
# is the last row of a stream: its prediction reads the rows before it,
# and its label counts for nothing

def probe(points, x):
    """The prediction of x after learning points, from a pass over the
    stream of points then x; the oracle's too."""
    ds = numeric_dataset(points + [(x, "B")])
    predicted = prediction_trace(NaiveBayesLearner(ds), ds)[-1]
    assert predicted == prediction_trace(OracleNaiveBayes(ds), ds)[-1]
    return predicted


def test_naive_bayes_single_class_updates():
    points = [(0.0, "A"), (1.0, "A")]
    assert probe(points, 5.0) == "A"
    assert probe(points, -100.0) == "A"


def test_naive_bayes_hand_gaussians():
    points = [(0.0, "A"), (1.0, "A"), (10.0, "B"), (11.0, "B")]
    # both classes: mean 0.5 / 10.5, variance 0.25; equal priors, so the
    # posterior is decided by squared distance to the class mean
    assert probe(points, 0.5) == "A"
    assert probe(points, 10.5) == "B"
    assert probe(points, 5.49) == "A"
    assert probe(points, 5.51) == "B"


def test_naive_bayes_before_any_update_uses_class_order():
    assert probe([], 3.0) == "A"  # all-equal scores tie to first class


def test_naive_bayes_nominal_features():
    schema = (AttributeSchema("color", ("red", "blue")),
              AttributeSchema("cls", ("A", "B")))
    rows = [(0, 0), (0, 0), (1, 1), (1, 1), (0, 0)]
    for color, expected in [(0, "A"), (1, "B")]:
        ds = StreamDataset(schema, tuple(Instance((f,), c) for f, c in
                                         rows + [(color, 1)]), 1)
        report = prequential_eval(NaiveBayesLearner(ds), ds)
        assert report.n == 6
        assert prediction_trace(NaiveBayesLearner(ds), ds)[-1] == expected


def test_naive_bayes_reset_restores_fresh_state():
    ds = numeric_dataset([(0.0, "A"), (9.0, "B")])
    nb = NaiveBayesLearner(ds)
    first = prequential_eval(nb, ds)
    nb.reset()
    second = prequential_eval(nb, ds)
    assert first.correct == second.correct
    assert first.confusion == second.confusion


def test_naive_bayes_argmax_rescaling_invariance():
    # predict is read-only: predicting the probe row again gives the same
    # class, the oracle's
    for x in (-2.0, 0.5, 2.0, 3.9, 7.0):
        ds = numeric_dataset([(0.0, "A"), (1.0, "A"), (4.0, "B"), (x, "A")])
        calls = walk(ds, range(3)) + [("predict", (x,))] * 2
        pred, again = run_calls(NaiveBayesLearner(ds), calls)[-2:]
        assert pred == again == run_calls(OracleNaiveBayes(ds), calls)[-1]


@st.composite
def mixed_streams(draw):
    """Numeric and nominal features in any order, or none; labels drawn
    from a subset of the classes, so some classes are never seen (and on
    short streams some are seen once). Each numeric feature is plain,
    constant (its variances hit the floor), a large offset with a small
    spread, or plain with +-inf and NaN among its values."""
    kinds = draw(st.lists(st.booleans(), max_size=4))
    k = draw(st.integers(1, 4))
    seen = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k,
                         unique=True))
    schema = tuple(AttributeSchema(f"f{i}", ("p", "q", "r")[:draw(
        st.integers(1, 3))] if nominal else None)
        for i, nominal in enumerate(kinds)) \
        + (AttributeSchema("cls", tuple("ABCD"[:k])),)
    plain = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                      st.floats(-1e3, 1e3, allow_nan=False),
                      st.floats(-1e-6, 1e-6, allow_nan=False))
    # the strategy of each numeric feature's values
    numeric = st.one_of(
        st.just(plain),
        plain.map(st.just),  # constant
        st.sampled_from([1e6, -3e8, 1e12]).map(
            lambda at: st.floats(-1e-3, 1e-3).map(lambda d: at + d)),
        st.just(st.one_of(plain, st.sampled_from([math.inf, -math.inf,
                                                  math.nan]))))
    columns = [st.integers(0, len(a.values) - 1) if a.is_nominal
               else draw(numeric) for a in schema[:-1]]
    instances = tuple(
        Instance(tuple(draw(column) for column in columns),
                 draw(st.sampled_from(seen)))
        for _ in range(draw(st.integers(1, 30))))
    return StreamDataset(schema, instances, len(schema) - 1)


NAN_STREAM = numeric_dataset([(math.inf, "A"), (1.0, "B"), (-math.inf, "A"),
                              (math.nan, "B"), (2.0, "A"), (math.nan, "A")])
# one stream of each case mixed_streams draws, so that every run has them,
# and one whose values are too far apart to square before a class that
# no prediction scores there is trained
NB_EDGE_CASES = [
    numeric_dataset([(1e12 + d, c) for d, c in
                     [(1e-4, "A"), (2e-4, "B"), (3e-4, "A"), (2e-4, "B"),
                      (1e-4, "A"), (4e-4, "B")]]),
    numeric_dataset([(2.0, "A"), (2.0, "B"), (2.0, "A"), (2.0, "B"),
                     (3.0, "A")]),
    numeric_dataset([(0.0, "A"), (5.0, "B"), (0.5, "A"), (4.0, "A")]),
    NAN_STREAM,
    StreamDataset((AttributeSchema("cls", ("A", "B", "C")),),
                  [Instance((), c) for c in (1, 1, 0, 2, 0, 0)], 0),
    numeric_dataset([(1e308, "A"), (-1e308, "A"), (0.0, "B"), (1.0, "A")]),
]


def with_edge_cases(test):
    for ds in NB_EDGE_CASES:
        test = example(ds)(test)
    return test


@given(mixed_streams())
@with_edge_cases
@settings(max_examples=300, deadline=None)
def test_naive_bayes_matches_unmemoised_oracle(ds):
    expected = prediction_trace(OracleNaiveBayes(ds), ds)
    nb = NaiveBayesLearner(ds)
    assert prediction_trace(nb, ds) == expected
    nb.reset()
    assert prediction_trace(nb, ds) == expected
    codes = _naive_bayes_trace(ds)
    assert [ds.class_values[c] for c in codes] == expected
    assert prequential_eval(NaiveBayesLearner(ds), ds).confusion == \
        prequential_eval(OracleNaiveBayes(ds), ds).confusion


def same_float(a, b):
    """a and b have the same bits, or are both NaN."""
    a, b = float(a), float(b)
    return struct.pack("<d", a) == struct.pack("<d", b) or \
        math.isnan(a) and math.isnan(b)


@given(mixed_streams())
@with_edge_cases
@settings(max_examples=200, deadline=None)
def test_whole_stream_scores_are_the_learners_bit_for_bit(ds):
    scores, trained = map(np.array, zip(*(
        _naive_bayes_scores(ds, c) for c in range(len(ds.class_values)))))
    assert scores.shape == trained.shape == \
        (len(ds.class_values), ds.n_instances)
    assert not trained[:, 0].any()  # t = 0 takes the first class
    oracle = OracleNaiveBayes(ds)
    for t, (features, code) in enumerate(ds._rows()):
        if t:
            expected = oracle.scores(features)
            assert trained[:, t].tolist() == [s is not None for s in expected]
            assert all(same_float(scores[c, t], s)
                       for c, s in enumerate(expected) if s is not None)
        oracle.update(features, ds.class_values[code])


def test_rows_holding_nan_stay_on_the_stream():
    # NaN equals nothing, itself included; the learner takes NaN to match
    # NaN in the same position, so it serves such a stream from its trace
    text = "x,day,cls\n1.5,mon,A\nnan,tue,B\n2.0,mon,A\n-1.0,tue,B\n" \
        "nan,mon,A\n0.5,tue,B\n3.0,tue,A\n"
    csv_ds = parse_csv(io.StringIO(text))
    assert math.isnan(csv_ds.columns[0][1])
    for ds in (NAN_STREAM, csv_ds):
        nb = NaiveBayesLearner(ds)
        report = prequential_eval(nb, ds)
        assert nb._cursor == ds.n_instances
        assert report.confusion == \
            prequential_eval(OracleNaiveBayes(ds), ds).confusion


# calls that leave the stream a learner is made from raise SchemaMismatch
# naming the row at its cursor; the calls before them get the oracle's
# predictions, which has no stream

def run_until_off_stream(learner, calls):
    """learner's predictions on calls up to the first that raises
    SchemaMismatch, that call's index and the error's message; None and
    None if no call raises."""
    out = []
    for i, (name, *args) in enumerate(calls):
        try:
            result = getattr(learner, name)(*args)
        except SchemaMismatch as exc:
            return out, i, str(exc)
        if name == "predict":
            out.append(result)
    return out, None, None


def three_class_stream(n=60, seed=3):
    rnd = random.Random(seed)
    schema = (AttributeSchema("x", None), AttributeSchema("day", ("m", "t")),
              AttributeSchema("y", None),
              AttributeSchema("cls", ("A", "B", "C")))
    return StreamDataset(schema, [
        Instance((rnd.gauss(c, 1.0), rnd.randrange(2), rnd.random()), c)
        for c in (rnd.randrange(3) for _ in range(n))], 3)


STREAM = three_class_stream()
OTHER = three_class_stream(seed=4)
N = STREAM.n_instances
HALF = N // 2
FEATURES = [features for features, _ in STREAM._rows()]
# each script walks the stream's first `row` rows, then leaves it
LEAVING_CALLS = {
    "foreign-predict": (HALF, walk(STREAM, range(HALF))
                        + [("predict", (0.25, 1, 0.5))]
                        + walk(STREAM, range(HALF, N))),
    "predict-of-a-later-row": (HALF, walk(STREAM, range(HALF))
                               + [("predict",
                                   FEATURES[HALF + 1])]
                               + walk(STREAM, range(HALF, N))),
    "foreign-update": (HALF, walk(STREAM, range(HALF))
                       + [("update", FEATURES[HALF], "C"
                           if STREAM.labels()[HALF] != "C" else "A")]
                       + walk(STREAM, range(HALF, N))),
    "list-not-tuple": (HALF, walk(STREAM, range(HALF))
                       + [("predict", list(FEATURES[HALF]))]
                       + walk(STREAM, range(HALF, N))),
    "numpy-array": (HALF, walk(STREAM, range(HALF))
                    + [("predict", np.array(FEATURES[HALF], dtype=object))]
                    + walk(STREAM, range(HALF, N))),
    "after-the-last-row": (N, walk(STREAM, range(N))
                           + walk(STREAM, range(N))),
    "another-dataset": (0, walk(OTHER, range(N))),
    "none-predict-first": (0, [("predict", None)] + walk(STREAM, range(N))),
    "none-update-first": (0, [("update", None, STREAM.labels()[0])]
                          + walk(STREAM, range(N))),
    "none-update": (HALF, walk(STREAM, range(HALF))
                    + [("update", None, STREAM.labels()[HALF])]
                    + walk(STREAM, range(HALF, N))),
}


@pytest.mark.parametrize("row, calls", LEAVING_CALLS.values(),
                         ids=LEAVING_CALLS)
def test_calls_leaving_the_stream_match_the_oracle(row, calls):
    nb = NaiveBayesLearner(STREAM)
    predictions, at, message = run_until_off_stream(nb, calls)
    assert at == 2 * row and message.startswith(f"row {row}: ")
    assert predictions == run_calls(OracleNaiveBayes(STREAM), calls[:at])
    assert nb._cursor == row  # the call that raised moved nothing
    nb.reset()
    assert run_calls(nb, walk(STREAM, range(N))) == \
        run_calls(OracleNaiveBayes(STREAM), walk(STREAM, range(N)))
    assert nb._cursor == N


def test_a_call_off_the_stream_moves_nothing():
    # after the call that raises, the walk goes on where it stood
    nb = NaiveBayesLearner(STREAM)
    first = run_calls(nb, walk(STREAM, range(HALF)))
    for bad in [("predict", (0.25, 1, 0.5)),
                ("update", FEATURES[HALF + 1], "A"),
                ("predict", None), ("update", None, STREAM.labels()[HALF])]:
        with pytest.raises(SchemaMismatch, match=f"^row {HALF}: "):
            run_calls(nb, [bad])
    # None is not the tuple predict matched either
    nb.predict(FEATURES[HALF])
    with pytest.raises(SchemaMismatch, match=f"^row {HALF}: not the values"):
        nb.update(None, STREAM.labels()[HALF])
    assert first + run_calls(nb, walk(STREAM, range(HALF, N))) == \
        run_calls(OracleNaiveBayes(STREAM), walk(STREAM, range(N)))
    with pytest.raises(SchemaMismatch, match=f"^row {N}: past the end"):
        nb.update(*walk(STREAM, [0])[1][1:])


def test_reset_mid_stream_keeps_the_trace():
    nb = NaiveBayesLearner(STREAM)
    calls = walk(STREAM, range(HALF)) + [("reset",)] + walk(STREAM, range(N))
    first = run_calls(nb, walk(STREAM, range(HALF)))
    trace = nb._trace
    assert first + run_calls(nb, [("reset",)] + walk(STREAM, range(N))) == \
        run_calls(OracleNaiveBayes(STREAM), calls)
    assert nb._trace is trace and nb._cursor == N


def test_a_copy_mid_stream_carries_on():
    nb = NaiveBayesLearner(STREAM)
    run_calls(nb, walk(STREAM, range(HALF)))
    rest = walk(STREAM, range(HALF, N))
    oracle = OracleNaiveBayes(STREAM)
    run_calls(oracle, walk(STREAM, range(HALF)))
    expected = run_calls(oracle, rest)
    for twin in (copy.deepcopy(nb), pickle.loads(pickle.dumps(nb)), nb):
        assert twin._cursor == HALF
        assert run_calls(twin, rest) == expected
        assert twin._cursor == N


def first_off_stream(ds, calls):
    """The index of the first of calls that does not walk ds in order
    (NaN matching NaN), and the row it came at; None and None if every
    call does."""
    stream, cursor = list(ds._rows()), 0
    for i, (name, *args) in enumerate(calls):
        if name == "reset":
            cursor = 0
            continue
        if cursor == ds.n_instances:
            return i, cursor
        row, code = stream[cursor]
        features = args[0]
        if not (isinstance(features, tuple)
                and len(features) == len(row)
                and all(a == b or math.isnan(a) and math.isnan(b)
                        for a, b in zip(features, row))) \
                or name == "update" \
                and args[1] != ds.class_values[code]:
            return i, cursor
        cursor += name == "update"
    return None, None


@given(mixed_streams(), st.lists(st.tuples(
    st.sampled_from(["next", "predict", "update", "reset"]),
    st.integers(0, 29), st.integers(0, 3)), max_size=40))
@settings(max_examples=150, deadline=None)
def test_any_calls_match_the_oracle(ds, script):
    # "next" is the stream's next row; past the end it wraps around
    stream, calls, t = list(ds._rows()), [], 0
    for name, row, label in script:
        if name == "reset":
            calls.append(("reset",))
            t = 0
        elif name == "next":
            calls += walk(ds, [t % ds.n_instances])
            t += 1
        else:
            features = stream[row % ds.n_instances][0]
            calls.append(("predict", features) if name == "predict" else
                         ("update", features, ds.class_values[
                             label % len(ds.class_values)]))
    at, cursor = first_off_stream(ds, calls)
    predictions, raised_at, message = \
        run_until_off_stream(NaiveBayesLearner(ds), calls)
    assert raised_at == at
    assert at is None or message.startswith(f"row {cursor}: ")
    assert predictions == run_calls(OracleNaiveBayes(ds), calls[:at])


# ** 2 of a finite value raises OverflowError. The oracle raises at the
# row that meets it, the learner in the trace at its first predict, so
# the two are compared pass for pass

def pass_outcome(learner, ds):
    """The predictions of a prequential pass of learner over ds, or
    OverflowError if the pass raises it."""
    try:
        return prediction_trace(learner, ds)
    except OverflowError:
        return OverflowError


def test_a_square_too_large_raises_where_the_oracle_does():
    ds = numeric_dataset([(1e200, "A"), (-1e200, "B"), (0.0, "A")])
    assert pass_outcome(OracleNaiveBayes(ds), ds) is OverflowError
    assert pass_outcome(NaiveBayesLearner(ds), ds) is OverflowError
    with pytest.raises(OverflowError):
        _naive_bayes_trace(ds)


def oracle_overflow_row(ds):
    """The row at which a prequential pass of OracleNaiveBayes raises
    OverflowError, or None."""
    oracle = OracleNaiveBayes(ds)
    for t, (features, code) in enumerate(ds._rows()):
        try:
            oracle.predict(features)
        except OverflowError:
            return t
        oracle.update(features, ds.class_values[code])
    return None


@pytest.mark.parametrize("ds, class_0_row", [
    (numeric_dataset([(1e200, "A"), (-1e200, "B"), (0.0, "A")]), 1),
    # class A first overflows at row 3, class B at row 1
    (numeric_dataset([(0.0, "B"), (1e200, "A"), (1e200, "A"), (0.0, "B")]),
     3),
    # class A's feature x first overflows at row 3, its feature y at row 1
    (parse_csv(io.StringIO("x,y,cls\n0,0,A\n0,1e200,A\n0,0,B\n"
                           "1e200,0,A\n")), 1),
], ids=["first-class", "second-class", "second-feature"])
def test_a_square_too_large_is_a_typed_error_at_the_oracles_row(
        ds, class_0_row):
    row = oracle_overflow_row(ds)
    assert row == 1
    # one class alone may overflow later: the trace takes the least row
    assert evaluation._class_scores(ds, 0, None, np.log, np.square)[3] == \
        class_0_row
    with pytest.raises(OverflowError):
        _naive_bayes_scores(ds, 0)
    for call in (lambda: _naive_bayes_trace(ds),
                 lambda: prequential_eval(NaiveBayesLearner(ds), ds)):
        with pytest.raises(ScoreOverflow) as err:
            call()
        assert isinstance(err.value, StreamAuditError)
        assert isinstance(err.value, OverflowError)
        assert err.value.row == row
        assert str(err.value) == (f"row {row}: a value is too far from a "
                                  "class mean for naive Bayes to square")


SQUARE_LIMIT = 1.3407807929942596e154  # the largest float ** 2 keeps finite


@pytest.mark.parametrize("diff", [SQUARE_LIMIT, -SQUARE_LIMIT,
                                  math.nextafter(SQUARE_LIMIT, math.inf),
                                  -math.nextafter(SQUARE_LIMIT, math.inf)])
def test_squares_at_the_overflow_limit_raise_where_the_oracle_does(diff):
    # row 2 is diff away from class A's mean; ** 2 and np.square both
    # overflow just past SQUARE_LIMIT; row 3's scores are not finite
    overflows = abs(diff) > SQUARE_LIMIT
    with np.errstate(over="ignore"):
        assert math.isinf(np.square(diff)) == overflows
    ds = numeric_dataset([(-1.0, "A"), (1.0, "A"), (diff, "B"), (0.0, "A")])
    expected = pass_outcome(OracleNaiveBayes(ds), ds)
    assert (expected is OverflowError) == overflows
    assert pass_outcome(NaiveBayesLearner(ds), ds) == expected


def test_a_square_no_prediction_makes_does_not_raise_in_the_trace():
    # a value too far from the first value of a class not yet trained to
    # square: no prediction scores that class there, so neither the
    # oracle nor the trace squares it
    for points in ([(0.0, "A"), (1.3e154, "A"), (1.95e154, "A"),
                    (2.38e154, "B")],
                   [(1e308, "A"), (-1e308, "A"), (0.0, "B"), (1.0, "A")]):
        ds = numeric_dataset(points)
        expected = prediction_trace(OracleNaiveBayes(ds), ds)
        assert [ds.class_values[c] for c in _naive_bayes_trace(ds)] == \
            expected
        assert prediction_trace(NaiveBayesLearner(ds), ds) == expected


# The trace settles a row from np.log and np.square scores only when an
# error bound shows the exact scores order the classes the same way, and
# scores the rest again with the learner's operations.

def mirrored_dataset(values):
    """Class A learns each value and class B its negation, in turn, so at
    a row of value 0.0 that starts a pair the two scores are equal."""
    return numeric_dataset([(sign * v, c) for v in values
                            for sign, c in ((1.0, "A"), (-1.0, "B"))])


@st.composite
def tied_streams(draw):
    """Streams with exact ties on some rows: nominal-only ones whose first
    two rows differ only in the label, and mirrored ones of values near an
    offset, whose second pair is 0.0."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        k = draw(st.integers(2, 3))
        schema = tuple(AttributeSchema(f"f{i}", ("p", "q", "r")[:size])
                       for i, size in enumerate(sizes)) \
            + (AttributeSchema("cls", tuple("ABC"[:k])),)
        rows = draw(st.lists(st.tuples(*(st.integers(0, size - 1)
                                         for size in sizes)),
                             min_size=3, max_size=30))
        labels = [0, 1] + [draw(st.integers(0, k - 1)) for _ in rows[2:]]
        rows[1] = rows[0]
        return StreamDataset(schema, [Instance(row, c) for row, c
                                      in zip(rows, labels)], len(sizes))
    at = draw(st.sampled_from([1.0, 5.0, -300.0]))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2)
                                     .map(lambda d: at + d)),
                           min_size=1, max_size=15))
    return mirrored_dataset(values[:1] + [0.0] + values[1:])


NB_TIE_CASES = [
    mirrored_dataset([5.0, 0.0, 5.01, 0.0, 4.99, 0.0, 5.0]),
    mirrored_dataset([-300.0, 0.0, -300.001, 0.0]),
    StreamDataset((AttributeSchema("a", ("p", "q", "r")),
                   AttributeSchema("b", ("p", "q")),
                   AttributeSchema("cls", ("A", "B", "C"))),
                  [Instance((a, b), c) for a, b, c in
                   [(0, 1, 0), (0, 1, 1), (2, 0, 2), (1, 1, 0), (2, 0, 1),
                    (1, 1, 2), (0, 0, 1), (0, 0, 0), (1, 0, 2), (2, 1, 0)]],
                  2),
]


def with_tie_cases(test):
    for ds in NB_TIE_CASES:
        test = example(ds)(test)
    return test


def traced_predictions(ds):
    """The trace's predictions, and how many rows it scored again."""
    rescored = []

    def spy(ds, c, rows=None, runs=None):
        rescored.append(len(rows))
        return _naive_bayes_scores(ds, c, rows, runs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_naive_bayes_scores", spy)
        codes = _naive_bayes_trace(ds)
    k = len(ds.class_values)
    return [ds.class_values[c] for c in codes], sum(rescored) // k


@given(tied_streams())
@with_tie_cases
@settings(max_examples=150, deadline=None)
def test_exact_ties_are_scored_again_and_break_the_learners_way(ds):
    predictions, rescored = traced_predictions(ds)
    assert predictions == prediction_trace(OracleNaiveBayes(ds), ds)
    assert rescored > 0


def moved(kernel, units):
    """kernel with each result moved by units * 2**-52 of itself, one way
    or the other by its argument's sign bit and lowest bit, so that equal
    scores from mirrored or merely different arguments come apart."""
    def kernel_moved(x):
        down = np.signbit(x) ^ (x.view(np.int64) & 1).astype(bool)
        return kernel(x) * np.where(down, 1 - units * 2.0 ** -52,
                                    1 + units * 2.0 ** -52)
    return kernel_moved


@given(st.one_of(mixed_streams(), tied_streams()))
@with_edge_cases
@with_tie_cases
@settings(max_examples=300, deadline=None)
def test_kernels_a_few_hundred_ulps_off_keep_the_trace(ds):
    # the bound, not np.log agreeing with math.log, makes the trace exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "log", moved(np.log, 300))
        mp.setattr(np, "square", moved(np.square, 300))
        predictions, _ = traced_predictions(ds)
    assert predictions == prediction_trace(OracleNaiveBayes(ds), ds)


# Step 1 takes each class's running means as np.cumsum(x) / count, not
# the learner's Welford means, and its tol holds a proven radius for the
# difference. Long streams where the two means part the most: values on a
# large offset, values near the smallest normal floats, values near the
# largest that step 1 takes by running sums (2**494) and past them, and
# values that are not finite.

def long_stream(values, labels):
    return StreamDataset((AttributeSchema("x", None),
                          AttributeSchema("cls", ("A", "B"))),
                         [Instance((x,), y) for x, y in zip(values, labels)],
                         1)


def bound_streams():
    rnd = random.Random(2502)
    streams = {}
    for name, n, value in [
            ("offset", 20_000, lambda y: 1e8 + rnd.random() + 0.3 * y),
            ("tiny", 5_000, lambda y: 1e-300 * rnd.random() * (1 + y)),
            ("under-2**494", 5_000,
             lambda y: 2.0 ** 493 * (rnd.random() - 0.5 + 0.2 * y)),
            ("near-the-square-limit", 5_000,
             lambda y: 6e153 * (rnd.random() - 0.5 + 0.1 * y)),
            ("non-finite", 5_000,
             lambda y: rnd.choice([math.nan, math.inf, -math.inf])
             if rnd.random() < 0.01 else rnd.gauss(y, 1.0))]:
        labels = [rnd.randrange(2) for _ in range(n)]
        streams[name] = long_stream([value(y) for y in labels], labels)
    return streams


BOUND_STREAMS = bound_streams()


@pytest.mark.parametrize("ds", BOUND_STREAMS.values(), ids=BOUND_STREAMS)
def test_step_1_scores_lie_within_their_bound_of_the_learners(ds):
    for c in range(len(ds.class_values)):
        score, trained, tol, first = evaluation._class_scores(
            ds, c, None, np.log, np.square, running_sums=True)
        exact, exact_trained = _naive_bayes_scores(ds, c)
        assert np.array_equal(trained, exact_trained)
        assert first == ds.n_instances
        with np.errstate(invalid="ignore"):
            settled = trained & np.isfinite(score + tol)
            assert np.isfinite(exact[settled]).all()
            assert (np.abs(score - exact)[settled] <= tol[settled]).all()


def test_on_an_offset_the_running_means_part_beyond_the_kernel_bound():
    # the radius, not the kernels' bound, covers these scores
    ds = BOUND_STREAMS["offset"]
    score, trained, tol, _ = evaluation._class_scores(
        ds, 0, None, np.log, np.square, running_sums=True)
    welford, _, kernel_tol, _ = evaluation._class_scores(
        ds, 0, None, np.log, np.square)
    exact, _ = _naive_bayes_scores(ds, 0)
    assert (np.abs(score - exact) > kernel_tol)[trained].any()
    assert (np.abs(welford - exact) <= kernel_tol)[trained].all()


@pytest.mark.parametrize("ds", BOUND_STREAMS.values(), ids=BOUND_STREAMS)
def test_long_streams_predict_as_the_oracle(ds):
    assert [ds.class_values[c] for c in _naive_bayes_trace(ds)] == \
        prediction_trace(OracleNaiveBayes(ds), ds)


def test_a_late_square_too_large_is_the_oracles_row_on_a_long_stream():
    values = list(BOUND_STREAMS["near-the-square-limit"].columns[0])
    labels = BOUND_STREAMS["near-the-square-limit"].labels()
    values[4_000] = 2e154 if values[4_000] < 0 else -2e154
    ds = long_stream(values, [("A", "B").index(y) for y in labels])
    row = oracle_overflow_row(ds)
    assert row is not None
    with pytest.raises(ScoreOverflow) as err:
        _naive_bayes_trace(ds)
    assert err.value.row == row


def welford_lengths(ds):
    """The trace's predictions, the rows step 2 scores, and the length of
    each run of _welford_means."""
    lengths, rescored = [], []

    def means(values):
        lengths.append(len(values))
        return welford_means(values)

    def scores(ds, c, rows=None, runs=None):
        rescored.append(rows)
        return _naive_bayes_scores(ds, c, rows, runs)

    welford_means = evaluation._welford_means
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_welford_means", means)
        mp.setattr(evaluation, "_naive_bayes_scores", scores)
        codes = _naive_bayes_trace(ds)
    return [ds.class_values[c] for c in codes], rescored, lengths


@pytest.mark.parametrize("ds", [BOUND_STREAMS["offset"], NB_TIE_CASES[0],
                                NB_TIE_CASES[1]])
def test_the_welford_recurrence_runs_in_step_2_alone(ds):
    # over each class's rows before the last row step 2 scores
    predictions, rescored, lengths = welford_lengths(ds)
    assert predictions == prediction_trace(OracleNaiveBayes(ds), ds)
    assert len(rescored) == len(ds.class_values)  # each class, one feature
    before = ds.labels()[:rescored[0].max()]
    assert lengths == [n for n in map(before.count, ds.class_values) if n]


def test_a_long_plain_stream_scores_no_row_again():
    rnd = random.Random(7)
    labels = [rnd.randrange(2) for _ in range(20_000)]
    ds = long_stream([rnd.gauss(y, 1.0) for y in labels], labels)
    _, rescored, lengths = welford_lengths(ds)
    assert rescored == [] and lengths == []


def test_a_prequential_pass_compares_each_row_once():
    nb = NaiveBayesLearner(STREAM)
    matched = []

    def match(features):
        matched.append(features)
        NaiveBayesLearner._match(nb, features)

    nb._match = match
    assert prequential_eval(nb, STREAM).confusion == \
        prequential_eval(OracleNaiveBayes(STREAM), STREAM).confusion
    assert len(matched) == N
    # the tuple predict matched is not compared again but its label is
    # checked, and an equal tuple that is not it is compared
    nb.reset()
    features = FEATURES[0]
    nb.predict(features)
    wrong = "C" if STREAM.labels()[0] != "C" else "A"
    with pytest.raises(SchemaMismatch, match="^row 0: label "):
        nb.update(features, wrong)
    assert len(matched) == N + 1
    nb.update(tuple(list(features)), STREAM.labels()[0])
    assert nb._cursor == 1 and len(matched) == N + 2


def test_prequential_empty_stream():
    ds = numeric_dataset([])
    with pytest.raises(EmptyStream):
        prequential_eval(PersistenceLearner("A"), ds)


def test_prequential_schema_mismatch():
    ds_a = numeric_dataset([(0.0, "A")])
    ds_b = numeric_dataset([(0.0, "A")], class_values=("A", "C"))
    nb = NaiveBayesLearner(ds_a)
    with pytest.raises(SchemaMismatch):
        prequential_eval(nb, ds_b)


def test_prequential_single_instance():
    ds = numeric_dataset([(1.0, "B")])
    report = prequential_eval(PersistenceLearner("A"), ds)
    assert report.n == 1 and report.accuracy in (0.0, 1.0)


class _Spy:
    name = "spy"

    def __init__(self):
        self.events = []

    def predict(self, features):
        self.events.append(("predict", features))
        return "A"

    def update(self, features, label):
        self.events.append(("update", features, label))

    def reset(self):
        self.events = []


def test_prequential_is_single_pass_test_then_train():
    ds = numeric_dataset([(1.0, "A"), (2.0, "B"), (3.0, "A")])
    spy = _Spy()
    prequential_eval(spy, ds)
    expected = []
    for features, code in ds._rows():
        expected.append(("predict", features))
        expected.append(("update", features, ds.class_values[code]))
    assert spy.events == expected


def test_a_prediction_outside_the_class_values_is_scored_wrong():
    ds = numeric_dataset([(1.0, "A"), (2.0, "B"), (3.0, "A"), (4.0, "A")])
    spy = _Spy()
    spy.predict = lambda features: "Z" if features[0] % 2 else "A"
    report = prequential_eval(spy, ds)
    assert report.confusion == {("A", "Z"): 2, ("B", "A"): 1,
                                ("A", "A"): 1}
    assert (report.n, report.correct) == (4, 1)
    assert json.loads(report.to_json())["confusion"] == \
        {"A": {"A": 1, "Z": 2}, "B": {"A": 1}}


@given(st.lists(st.sampled_from("DU"), min_size=1, max_size=40),
       st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_wrapped_learners_match_label_only_functions(labels, seed):
    ds = labels_to_dataset([0 if lab == "D" else 1 for lab in labels])
    names = ds.labels()
    cold = names[0]
    assert prequential_eval(PersistenceLearner(cold), ds).accuracy == \
        persistence_accuracy(names)
    assert prequential_eval(MajorityLearner(cold), ds).accuracy == \
        majority_baseline(names)
    rho = (seed % 11) / 10
    assert prequential_eval(RandomRestartLearner(rho, seed, cold), ds).accuracy \
        == random_restart_run(names, RestartPolicy(rho, seed))


@given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=40),
       st.integers(0, 2**64 - 1), st.floats(0, 1))
@settings(max_examples=80, deadline=None)
def test_restart_learner_matches_kernel_on_k_class_streams(labels, seed, rho):
    # the sequential learner and the vectorised kernel are the two restart
    # implementations
    ds = numeric_dataset([(0.0, lab) for lab in labels], "ABCD")
    report = prequential_eval(RandomRestartLearner(rho, seed, labels[0]), ds)
    policy = RestartPolicy(rho, seed)
    trace = random_restart_trace(labels, policy)
    assert report.correct == sum(p == y for p, y in zip(trace, labels))
    assert report.accuracy == random_restart_run(labels, policy)


def test_confusion_reconstructs_accuracy():
    labels = gen_markov_labels(MarkovLabelModel(0.6, 0.5, 300, seed=4))
    ds = labels_to_dataset(labels)
    report = prequential_eval(MajorityLearner(ds.class_values[0]), ds)
    diagonal = sum(c for (t, p), c in report.confusion.items() if t == p)
    assert diagonal / report.n == report.accuracy
    assert sum(report.confusion.values()) == report.n


def test_eval_report_json_fields():
    ds = labels_to_dataset([0, 1, 0, 0])
    report = prequential_eval(PersistenceLearner("0"), ds)
    doc = json.loads(report.to_json())
    assert set(doc) == {"classifier", "n", "correct", "accuracy", "confusion"}
    assert doc["n"] == 4


def autocorrelated_labels(n=4000, seed=1):
    return ["UP" if x else "DOWN"
            for x in gen_markov_labels(MarkovLabelModel(0.42, 0.85, n,
                                                        seed=seed))]


def test_audit_verdicts():
    labels = autocorrelated_labels()
    bar = persistence_accuracy(labels)
    assert audit_accuracy(min(1.0, bar + 0.03), labels).verdict is \
        Verdict.ABOVE_PERSISTENCE
    assert audit_accuracy(bar, labels).verdict is Verdict.BELOW_PERSISTENCE
    assert audit_accuracy(0.30, labels).verdict is Verdict.BELOW_MAJORITY
    verdict = audit_accuracy(bar - 0.01, labels)
    assert verdict.verdict is Verdict.BELOW_PERSISTENCE
    assert verdict.margin == pytest.approx(-0.01)


def test_below_majority_wins_over_above_persistence():
    # iid labels: the majority bar is above the persistence bar, and a
    # subject between them is below majority, not above persistence
    labels = gen_iid_labels(0.42, 45312, 7)
    verdict = audit_accuracy(0.5341, labels)
    assert round(verdict.persistence_bar, 4) == 0.5109
    assert round(verdict.majority_bar, 4) == 0.5777
    assert verdict.verdict is Verdict.BELOW_MAJORITY
    assert verdict.margin == 0.5341 - verdict.persistence_bar


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_above_persistence_only_above_both_bars(subject, persistence,
                                                independence, majority):
    verdict = AuditVerdict(subject, persistence, independence, majority)
    above_both = subject > persistence and subject >= majority
    assert (verdict.verdict is Verdict.ABOVE_PERSISTENCE) == above_both
    assert (verdict.verdict is Verdict.BELOW_MAJORITY) == \
        (subject < majority)


def test_audit_json_fields():
    verdict = audit_accuracy(0.9, autocorrelated_labels())
    doc = json.loads(verdict.to_json(n=4000))
    assert set(doc) == {"n", "accuracy", "confusion", "bars", "margin",
                        "verdict"}
    assert set(doc["bars"]) == {"majority", "independence", "persistence"}


@pytest.mark.parametrize("accuracy", [1.5, -0.1])
def test_audit_rejects_an_accuracy_outside_0_1(accuracy):
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        audit_accuracy(accuracy, list("DUUD"))


def test_audit_empty_stream():
    with pytest.raises(EmptyStream):
        audit_accuracy(0.5, [])


def test_audit_prediction_log_self_comparison():
    labels = autocorrelated_labels(n=1000, seed=3)
    preds = [labels[0]] + labels[:-1]  # replicate persistence with a
    log = list(zip(labels, preds))     # first-label cold start
    verdict, report = audit_prediction_log(log, labels)
    assert report.accuracy == pytest.approx(persistence_accuracy(labels))
    assert verdict.margin == pytest.approx(0.0)
    assert verdict.verdict is Verdict.BELOW_PERSISTENCE  # ties don't count


def test_audit_prediction_log_always_majority():
    labels = autocorrelated_labels(n=1000, seed=4)
    log = [(lab, "DOWN") for lab in labels]
    verdict, report = audit_prediction_log(log)
    down = sum(lab == "DOWN" for lab in labels) / len(labels)
    assert report.accuracy == pytest.approx(down)
    assert verdict.verdict is not Verdict.ABOVE_PERSISTENCE


def test_audit_prediction_log_mismatch_index():
    labels = list("DDUUDDUU")
    log = [(lab, "D") for lab in labels]
    wrong = labels.copy()
    wrong[7] = "X"
    with pytest.raises(LabelMismatch) as err:
        audit_prediction_log(log, wrong)
    assert err.value.index == 7


def test_audit_prediction_log_empty():
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        audit_prediction_log([])


def test_prediction_log_csv_round_trip():
    log = [("UP", "DOWN"), ("DOWN", "DOWN"), ("UP", "UP")]
    text = write_prediction_log(log)
    assert text.splitlines()[0] == "true,predicted"
    assert read_prediction_log(io.StringIO(text)) == log


def test_prediction_log_requires_header():
    message = "expected a CSV with header 'true,predicted'"
    for text, line in [("UP,DOWN\n", 1), ("\nUP,DOWN\n", 2), ("\n", None)]:
        with pytest.raises(ParseError, match=f"{message}$") as err:
            read_prediction_log(io.StringIO(text))
        assert err.value.line == line  # None: no record to name


def test_prediction_log_quotes_labels_round_trip():
    log = [("a,b", 'say "x"'), ("it's", "a,b"), ('"', "'"), ("UP", "UP")]
    text = write_prediction_log(log)
    assert text.splitlines()[1] == '"a,b","say ""x"""'
    again = read_prediction_log(io.StringIO(text))
    assert again == log
    _, report = audit_prediction_log(again)
    assert report.correct == 1 and report.confusion[("a,b", 'say "x"')] == 1


@pytest.mark.parametrize("text, line", [
    ("true,predicted\nUP,UP\nUP\n", 3),
    ("true,predicted\nUP,UP\n\nUP,DOWN,UP\n", 4),  # blank lines count
])
def test_prediction_log_ragged_row_names_line(text, line):
    with pytest.raises(ParseError) as err:
        read_prediction_log(io.StringIO(text + "DOWN,UP\n"))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: row has ")


def test_prediction_log_keeps_cell_whitespace():
    log = [(" a", "b "), ("b ", " a")]
    text = write_prediction_log(log)
    assert read_prediction_log(io.StringIO(text)) == log
    padded = text.replace("true,predicted", " true , predicted ")
    assert read_prediction_log(io.StringIO(padded)) == log


def test_audit_prediction_log_keeps_quoted_arff_value():
    ds = parse_arff(io.StringIO(
        "@relation r\n@attribute x numeric\n@attribute cls {' a',b}\n"
        "@data\n1,' a'\n2,b\n3,' a'\n"))
    assert ds.labels() == [" a", "b", " a"]
    text = write_prediction_log(list(zip(ds.labels(), [" a", " a", "b"])))
    verdict, report = audit_prediction_log(read_prediction_log(
        io.StringIO(text)), ds.labels())
    assert report.correct == 1 and report.confusion[(" a", " a")] == 1
    assert verdict.persistence_bar == persistence_accuracy(ds.labels())


def test_prediction_log_shares_equal_pairs():
    # a k-class log holds at most k*k distinct tuples, and reads as
    # csv.reader does: quoted and space-padded data cells kept verbatim
    values = [" A", "B ", "c,d", 'say "x"']
    rng = random.Random(5)
    rows = [(rng.choice(values), rng.choice(values)) for _ in range(500)]
    body = write_prediction_log(rows).split("\n", 1)[1]
    text = " true , predicted \n" + body
    text = text.replace("\nB ,", "\n B ,")  # an unquoted padded first cell
    log = read_prediction_log(io.StringIO(text))
    oracle = [tuple(row) for row in csv.reader(io.StringIO(text)) if row][1:]
    assert log == oracle
    assert all(type(pair) is tuple for pair in log)
    assert " B " in {t for t, _ in log}
    k = len({cell for pair in log for cell in pair})
    assert len(set(map(id, log))) <= k * k


def test_audit_prediction_log_mismatch_report():
    labels = list("DDUUDDUU")
    log = [(lab, "D") for lab in labels]
    audit_prediction_log(log, tuple(labels))  # any sequence of equal labels
    # a true label at index 5 that no dataset row holds
    odd = [(lab, "D") for lab in labels[:5] + ["Q"] + labels[6:]]
    for true, wrong, index, text in [
            (log, labels[:3] + ["X"] + labels[4:], 3,
             "true label at index 3 is 'U', dataset has 'X'"),
            (odd, labels, 5, "true label at index 5 is 'Q', dataset has 'D'"),
            (log, labels[:-1], 7, "prediction log has 8 rows, dataset has 7"),
            (log, labels + ["D"], 8,
             "prediction log has 8 rows, dataset has 9")]:
        # the same refusal from the labels and from a dataset holding them
        for ref in wrong, parse_csv(io.StringIO("\n".join(["y"] + wrong))):
            with pytest.raises(LabelMismatch) as err:
                audit_prediction_log(true, ref)
            assert (err.value.index, str(err.value)) == (index, text)
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        audit_prediction_log(log, [])  # the one refusal, not a length


@pytest.mark.parametrize("with_dataset", [False, True],
                         ids=["log-only", "with-dataset"])
def test_a_logged_prediction_outside_the_true_labels_is_in_the_confusion(
        with_dataset):
    log = [("A", "A"), ("B", "Z"), ("A", "Z"), ("B", "B"), ("A", "Y")]
    verdict, report = audit_prediction_log(
        log, [t for t, _ in log] if with_dataset else None)
    assert report.confusion == {("A", "A"): 1, ("A", "Y"): 1, ("A", "Z"): 1,
                                ("B", "B"): 1, ("B", "Z"): 1}
    assert (report.n, report.correct, verdict.subject_accuracy) == (5, 2, 0.4)
    assert json.loads(verdict.to_json(report.n, report.confusion))[
        "confusion"] == {"A": {"A": 1, "Y": 1, "Z": 1}, "B": {"B": 1, "Z": 1}}


def test_auditing_a_log_of_distinct_predictions_holds_no_k_by_k_table():
    """The scorer counts the code pairs that occur: a k * k table over this
    log's 45,314 labels would take 16 GB."""
    n = 45_312
    log = [("DU"[i % 2], f"p{i}") for i in range(n)]
    tracemalloc.start()
    try:
        _, report = audit_prediction_log(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.n, report.correct, len(report.confusion)) == (n, 0, n)
    assert peak < 40 * 2**20


def test_prediction_log_csv_and_decoding_errors_are_parse_errors(tmp_path):
    old = csv.field_size_limit(16)
    try:
        with pytest.raises(ParseError, match="^line 3: field larger than "
                                             "field limit"):
            read_prediction_log(io.StringIO("true,predicted\nA,A\n"
                                            + "B" * 20 + ",B\n"))
    finally:
        csv.field_size_limit(old)
    path = tmp_path / "log.csv"
    path.write_bytes("true,predicted\ncaf\xe9,A\n".encode("latin-1"))
    with pytest.raises(ParseError, match=" is not UTF-8 text$"):
        read_prediction_log(str(path))
