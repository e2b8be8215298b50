"""Prequential (interleaved test-then-train) evaluation and the audit
protocol that grades accuracy figures against the naive bars.

A classifier is anything with predict/update/reset. Each instance is
predicted first and trained on second, in stream order, with no lookahead;
accuracy accumulates from the first instance (no warm-up exclusion, no
fading factor).

The audit verdict compares a subject accuracy against three label-only
bars computed from the same stream: the incremental-majority bar, the
independence bar (sum of squared priors) and the persistence bar. A
classifier only demonstrates adaptation worth having when it lands
strictly above the persistence bar and not below the majority bar; ties
with persistence prove nothing and grade as BelowPersistence.

NaiveBayesLearner is the subject of an audit, made from one stream: its
calls must walk that stream in order, and any other call raises
SchemaMismatch. Each predict reads the prediction _naive_bayes_trace
computed for its row. The trace scores every row with numpy's log and
square, and keeps a row's class where an error bound shows that a
row-by-row learner's float operations (math.log and ** 2, in its order;
OracleNaiveBayes in tests/oracles.py) rank the classes the same way; it
scores the other rows with those operations. So its predictions are that
learner's exactly, and its scores are only on the rows it scores again.
"""

import csv
import enum
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import baselines, diagnostics
from .errors import (EmptyLog, EmptyStream, LabelMismatch, ParseError,
                     SchemaMismatch, ScoreOverflow)
from .stream_io import BLOCK_LINES, StreamDataset, _utf8, write_csv

_VARIANCE_FLOOR = 1e-9  # naive Bayes' least Gaussian variance
_CURSOR_ROWS = 256  # the stream's rows NaiveBayesLearner holds as Python values


class Classifier:
    """Behavioral contract: predict is read-only; update/reset mutate.

    After reset() the classifier behaves like a freshly constructed one.
    Subclasses bound to a dataset schema set self.schema so that
    prequential_eval can reject evaluation on a different dataset.
    """

    name = "classifier"
    schema = None

    def predict(self, features):
        raise NotImplementedError

    def update(self, features, label):
        raise NotImplementedError

    def reset(self):
        raise NotImplementedError


@dataclass(frozen=True)
class EvalReport:
    classifier: str
    n: int
    correct: int
    confusion: dict  # (true, predicted) -> count

    @property
    def accuracy(self) -> float:
        return self.correct / self.n

    def to_json(self) -> str:
        return json.dumps({
            "classifier": self.classifier,
            "n": self.n,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "confusion": _nested(self.confusion),
        }, indent=2)


def _score(name: str, pairs) -> EvalReport:
    """The report on (true, predicted) pairs; EmptyStream if none."""
    confusion = dict(Counter(pairs))
    if not confusion:
        raise EmptyStream("cannot evaluate on an empty stream")
    correct = sum(count for (t, p), count in confusion.items() if t == p)
    return EvalReport(name, sum(confusion.values()), correct, confusion)


def _nested(confusion: dict) -> dict:
    """A (true, predicted) -> count map as {true: {predicted: count}} with
    string keys, in sorted order, for JSON."""
    nested = {}
    for (true, pred), count in sorted(confusion.items()):
        nested.setdefault(str(true), {})[str(pred)] = count
    return nested


class Verdict(enum.Enum):
    ABOVE_PERSISTENCE = "AbovePersistence"
    BELOW_PERSISTENCE = "BelowPersistence"
    BELOW_MAJORITY = "BelowMajority"


@dataclass(frozen=True)
class AuditVerdict:
    subject_accuracy: float
    persistence_bar: float
    independence_bar: float
    majority_bar: float

    @property
    def margin(self) -> float:
        return self.subject_accuracy - self.persistence_bar

    @property
    def verdict(self) -> Verdict:
        if self.subject_accuracy < self.majority_bar:
            return Verdict.BELOW_MAJORITY
        if self.subject_accuracy > self.persistence_bar:
            return Verdict.ABOVE_PERSISTENCE
        return Verdict.BELOW_PERSISTENCE

    def to_json(self, n: Optional[int] = None,
                confusion: Optional[dict] = None) -> str:
        return json.dumps({
            "n": n,
            "accuracy": self.subject_accuracy,
            "confusion": None if confusion is None else _nested(confusion),
            "bars": {
                "majority": self.majority_bar,
                "independence": self.independence_bar,
                "persistence": self.persistence_bar,
            },
            "margin": self.margin,
            "verdict": self.verdict.value,
        }, indent=2)


def prequential_eval(classifier: Classifier, ds: StreamDataset) -> EvalReport:
    """Test-then-train over the whole stream, its schema checked first."""
    bound = getattr(classifier, "schema", None)
    if bound is not None and bound != ds.schema:
        raise SchemaMismatch(
            f"classifier {classifier.name!r} is bound to a different schema")
    labels = ds.labels()
    predictions = []
    for (features, _), true in zip(ds._rows(), labels):
        predictions.append(classifier.predict(features))
        classifier.update(features, true)
    return _score(classifier.name, zip(labels, predictions))


class NaiveBayesLearner(Classifier):
    """Streaming naive Bayes over the dataset it is made from: per-class
    Gaussians for numeric features (variance floored at 1e-9), add-one
    frequency tables for nominal ones, add-one class priors; ties break
    toward the earlier class in schema order.

    The learner is a cursor into that dataset, and its calls must walk it
    in order. update takes the row at the cursor (a tuple equal to its
    values, NaN matching NaN) and its label, and moves the cursor on.
    predict takes that row and returns its entry of the stream's trace,
    the predictions of _naive_bayes_trace, computed on the first predict
    and kept across reset. Any other call (another row's values, a list
    or an array, another label, or any call after the last row) raises
    SchemaMismatch naming the row at the cursor, and moves nothing.
    """

    name = "naive-bayes"

    def __init__(self, ds: StreamDataset):
        self.schema = ds.schema
        self._classes = ds.class_values
        self._stream = ds
        self._trace = None  # the stream's predicted codes, made on first use
        self.reset()

    def reset(self):
        # the stream's rows from _block_start on, _CURSOR_ROWS at most
        self._cursor = 0
        self._block_start, self._block = 0, []

    def _next_row(self, features):
        """The class code of the stream's row at the cursor; SchemaMismatch
        if features are not that row's values."""
        at = self._cursor - self._block_start
        if at == len(self._block):  # the next block; empty past the end
            self._block_start, at = self._cursor, 0
            self._block = list(self._stream._rows(
                self._cursor, self._cursor + _CURSOR_ROWS))
            if not self._block:
                raise SchemaMismatch(f"row {self._cursor}: past the end of "
                                     "the stream the learner is bound to")
        row, code = self._block[at]
        # == on a numpy array would compare elementwise
        if isinstance(features, tuple) and (features == row
                                            or _nan_equal(features, row)):
            return code
        raise SchemaMismatch(f"row {self._cursor}: not the values of the "
                             "stream the learner is bound to")

    def update(self, features, label):
        expected = self._classes[self._next_row(features)]
        if label != expected:
            raise SchemaMismatch(f"row {self._cursor}: label {label!r} is "
                                 f"not the stream's {expected!r}")
        self._cursor += 1

    def predict(self, features):
        self._next_row(features)
        if self._trace is None:
            self._trace = _naive_bayes_trace(self._stream)
        return self._classes[self._trace[self._cursor]]


def _nan_equal(features, row) -> bool:
    """Whether the tuples are equal where NaN equals NaN."""
    return len(features) == len(row) and all(
        a == b or a != a and b != b for a, b in zip(features, row))


def _naive_bayes_trace(ds: StreamDataset):
    """The class codes a row-by-row naive Bayes learner (OracleNaiveBayes
    in tests/oracles.py) predicts in a prequential pass over ds, all at
    once. As its predict does, each row takes its first trained class in
    schema order and changes only to a strictly greater score; at t = 0 no
    class is trained and the first class is taken.

    The predictions are exact; the scores behind them are the learner's
    only on the rows step 2 scores again. Step 1 scores every row with
    np.log and np.square, which differ from math.log and ** 2 in the last
    bits on some values (and np.log with numpy's SIMD dispatch), and keeps
    each score's size, the sum of its terms' magnitudes; an untrained
    class scores -inf with a bound of 0. A row is settled when its best
    class beats every other class by more than the two classes' error
    bounds, tol = scale * size: then the exact scores order the classes
    the same way. Step 2 scores the other rows after row 0, and those with
    a score that is not finite, by the learner's own operations and rule.
    Where the learner's ** 2 raises, ScoreOverflow names the first row.
    """
    n, k = ds.n_instances, len(ds.class_values)
    # The bound. A score is m = len(ds.schema) terms, the prior and one per
    # feature, added left to right. Both steps make each term from the same
    # float arguments; only the kernels differ. np.log and math.log, and
    # np.square and ** 2, each lie within 4 ulps of the true value, so the
    # two kernels' results differ by less than 2**-49 of themselves. size
    # bounds every term and every partial sum, so with the three roundings
    # that make a term and add it (each under 2**-53 of a value no larger
    # than size, on each side) one term moves the two scores apart by less
    # than 2**-48 * size, and m terms by less than m * 2**-48 * size.
    # 2**-44 per term is a margin of 16: kernels 2**7 ulps off are safe.
    scale = len(ds.schema) * 2.0 ** -44
    best = np.zeros(n, np.min_scalar_type(k - 1))
    best_score, best_tol = np.full(n, -np.inf), np.zeros(n)
    others_high = np.full(n, -np.inf)  # max of score + tol over the rest
    unsure = np.zeros(n, bool)
    runs = _nominal_runs(ds)
    overflow = n  # the first row where the learner's ** 2 raises, if any
    for c in range(k):
        score, trained, tol, first = _class_scores(ds, c, None, np.log,
                                                   np.square, runs)
        overflow = min(overflow, first)
        tol *= scale  # from size to the bound, in place
        score[~trained], tol[~trained] = -np.inf, 0.0
        with np.errstate(invalid="ignore"):  # a NaN score is never greater
            high = score + tol
            unsure |= trained & ~np.isfinite(high)
            take = score > best_score
            # the rest gains a class that does not take the lead, or the
            # one it takes the lead from
            np.maximum(others_high,
                       np.where(take, best_score + best_tol, high),
                       out=others_high)
        best[take] = c
        best_score[take] = score[take]
        best_tol[take] = tol[take]
        del score, tol, high  # freed before the next class's are made
    if overflow < n:
        raise ScoreOverflow(overflow)
    with np.errstate(invalid="ignore"):
        unsure |= ~(best_score - best_tol > others_high)
    unsure[:1] = False  # row 0, where no class is trained, takes the first
    rows = np.flatnonzero(unsure)
    # every later row has a trained class: the least class before the row,
    # its first trained one, leads whatever its score, and a later class
    # takes the lead with a strictly greater score
    lead = np.minimum.accumulate(ds.columns[ds.class_index])[rows - 1]
    best_score = np.zeros(len(rows))
    for c in range(k if len(rows) else 0):
        score, trained = _naive_bayes_scores(ds, c, rows, runs)
        with np.errstate(invalid="ignore"):
            take = (lead == c) | trained & (score > best_score)
        best[rows[take]] = c
        best_score[take] = score[take]
    return best


def _naive_bayes_scores(ds: StreamDataset, c: int, rows=None, runs=None):
    """(scores, trained): class c's score at each of rows (an index array;
    by default every row) of a prequential naive Bayes pass over ds, and
    whether class c has a row before it. runs is as _class_scores takes it.

    Where trained, the score is bit for bit the one a row-by-row learner
    (OracleNaiveBayes in tests/oracles.py) gives class c when it predicts
    row t after learning rows [0, t); elsewhere it means nothing. The
    float operations are the learner's, in its order: only the Welford
    mean recurrence runs in Python, M2 is its left fold by np.cumsum,
    math.log and ** 2 are applied by Python, and the terms are added in
    schema order.
    """
    return _class_scores(ds, c, rows, _logs, _squares, runs)[:2]


def _class_scores(ds, c, rows, log, square, runs=None):
    """(scores, trained, size, first): _naive_bayes_scores' two with log
    and square as the kernels; size is the sum of each score's terms'
    magnitudes, a Gaussian's 0.5 * (|log(2 pi var)| + (x - mean)**2 / var).
    Terms are made BLOCK_LINES rows at a time, so no more Python floats
    or temporary values than that are alive. runs is _nominal_runs(ds),
    made here if not given: a caller that scores several classes sorts
    each nominal column once.

    first is the first of rows where the row-by-row learner's ** 2 raises
    OverflowError whatever the kernels (a ** 2 kernel raises itself), or n:
    where class c is trained and the row's value is too far from c's mean
    to square. Where c is untrained the difference is 0: nothing reads it.
    """
    n, k = ds.n_instances, len(ds.class_values)
    rows = np.arange(n) if rows is None else rows
    runs = _nominal_runs(ds) if runs is None else runs
    blocks = [(slice(start, start + BLOCK_LINES),
               rows[start:start + BLOCK_LINES])
              for start in range(0, len(rows), BLOCK_LINES)]
    is_c = ds.columns[ds.class_index] == c
    before = np.cumsum(is_c, dtype=np.int32) - is_c  # c's rows in [0, t)
    last = np.maximum(before - 1, 0)  # the last of them
    score, size = np.empty(len(rows)), np.empty(len(rows))
    first = n
    for out, t in blocks:
        score[out] = log((before[t] + 1) / (t + k))
        size[out] = np.abs(score[out])
    for j, (attr, col) in enumerate(zip(ds.schema, ds.columns)):
        if j == ds.class_index:
            continue
        if attr.is_nominal:
            same = _earlier_equal(is_c, *runs[j])
            for out, t in blocks:
                term = log((same[t] + 1) / (before[t] + len(attr.values)))
                score[out] += term
                size[out] += np.abs(term)
            continue
        x = col[is_c]
        if not len(x):
            continue  # never trained
        with np.errstate(all="ignore"):  # inf and NaN values, as in Python
            mean = _welford_means(x)
            delta = x - np.concatenate(([0.0], mean[:-1]))
            var = np.cumsum(delta * (x - mean)) / np.arange(1, len(x) + 1)
            var[var < _VARIANCE_FLOOR] = _VARIANCE_FLOOR
            spread = 2.0 * math.pi * var  # positive or NaN
            for out, t in blocks:
                at = last[t]
                diff = col[t] - mean[at]
                diff[before[t] == 0] = 0.0  # c untrained: nothing reads it
                for i in np.flatnonzero(np.abs(diff) >= 2.0 ** 511).tolist():
                    try:
                        float(diff[i]) ** 2  # raises if the learner's does
                    except OverflowError:
                        first = min(first, int(t[i]))
                        break
                log_norm = log(spread[at])
                quad = square(diff) / var[at]
                score[out] -= 0.5 * (log_norm + quad)
                size[out] += 0.5 * (np.abs(log_norm) + quad)
    return score, before[rows] > 0, size, first


def _nominal_runs(ds: StreamDataset) -> dict:
    """For each nominal feature, by schema position: its rows sorted stably
    by value, and where each value's run starts in that order and how long
    it is. They depend on the column alone, not on the class."""
    runs = {}
    for j, (attr, col) in enumerate(zip(ds.schema, ds.columns)):
        if attr.is_nominal and j != ds.class_index:
            order = np.argsort(col, kind="stable")
            starts = np.flatnonzero(np.diff(col[order], prepend=-1))
            runs[j] = order, starts, np.diff(starts, append=len(col))
    return runs


def _earlier_equal(is_c, order, starts, lengths):
    """For each row t, the rows before t of the class is_c marks that
    hold row t's value of a nominal column: a count along the rows sorted
    stably by value (order, with its runs of one value at starts, of the
    given lengths; see _nominal_runs), less the count where that value's
    run starts."""
    hit = is_c[order]
    count = np.cumsum(hit, dtype=np.int32) - hit
    count -= np.repeat(count[starts], lengths)
    same = np.empty_like(count)
    same[order] = count
    return same


def _welford_means(values):
    """The running means of the array values, as the row-by-row learner's
    update (OracleNaiveBayes in tests/oracles.py) makes them, BLOCK_LINES
    at a time."""
    means = np.empty(len(values))
    mean = 0.0
    for start in range(0, len(values), BLOCK_LINES):
        block = []
        append = block.append
        for count, value in enumerate(
                values[start:start + BLOCK_LINES].tolist(), start + 1):
            mean += (value - mean) / count
            append(mean)
        means[start:start + BLOCK_LINES] = block
    return means


def _logs(values):
    return np.array(list(map(math.log, values.tolist())))


def _squares(values):
    return np.array([value ** 2 for value in values.tolist()])


def audit_accuracy(subject_accuracy: float, ds_or_labels) -> AuditVerdict:
    """Grade an accuracy figure against the bars of the given stream."""
    if not 0.0 <= subject_accuracy <= 1.0:
        raise ValueError("subject accuracy must be in [0, 1]")
    labels = diagnostics._encode(ds_or_labels)  # once, for every bar
    dist = diagnostics.label_distribution(labels)
    return AuditVerdict(
        subject_accuracy=subject_accuracy,
        persistence_bar=diagnostics.persistence_accuracy(labels),
        independence_bar=diagnostics.independence_bar(dist),
        majority_bar=baselines.majority_baseline(labels),
    )


def audit_prediction_log(log: Sequence, ds_labels: Optional[Sequence] = None):
    """Audit an externally produced (true, predicted) log.

    When ds_labels is supplied the log's true-label column must match it
    exactly; the bars are computed from that column either way. Returns
    (AuditVerdict, EvalReport).
    """
    log = list(log)
    if not log:
        raise EmptyLog("prediction log has no rows")
    true_col = [t for t, _ in log]
    if ds_labels is not None:
        if not isinstance(ds_labels, list):  # a list compares at once
            ds_labels = list(ds_labels)
        if ds_labels != true_col:  # then find where
            if len(ds_labels) != len(true_col):
                raise LabelMismatch(min(len(ds_labels), len(true_col)),
                                    f"prediction log has {len(true_col)} "
                                    f"rows, dataset has {len(ds_labels)}")
            for i, (a, b) in enumerate(zip(ds_labels, true_col)):
                if a != b:
                    raise LabelMismatch(i, f"true label at index {i} is "
                                           f"{b!r}, dataset has {a!r}")
    true = diagnostics._encode(true_col)  # once, for every bar
    report = _score("prediction-log", log)
    return audit_accuracy(report.accuracy, true), report


@_utf8
def read_prediction_log(source) -> list:
    """Read a 'true,predicted' CSV (header required) into (true, pred) pairs.

    Header cells may be padded with whitespace; data cells are read
    verbatim, so labels keep their leading and trailing spaces. Equal
    pairs are one shared tuple, so a k-class log holds at most k * k.
    A csv.reader error and input that is not UTF-8 are ParseErrors.
    """
    reader = csv.reader(source)
    log = []
    pairs = {}
    try:
        header = next(filter(None, reader), None)  # the first non-blank row
        if header is None or \
                [c.strip() for c in header] != ["true", "predicted"]:
            raise EmptyLog("expected a CSV with header 'true,predicted'")
        for row in reader:
            if len(row) == 2:
                pair = tuple(row)
                log.append(pairs.setdefault(pair, pair))
            elif row:
                raise ParseError(f"row has {len(row)} cells, expected 2",
                                 line=reader.line_num)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return log


def write_prediction_log(log: Sequence) -> str:
    """A 'true,predicted' CSV in the form read_prediction_log reads."""
    return write_csv(("true", "predicted"), log)
