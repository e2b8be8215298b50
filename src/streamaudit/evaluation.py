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

NaiveBayesLearner serves the stream it is made from out of one
whole-stream pass: while the calls walk that stream in order, each
predict reads the prediction _naive_bayes_trace computed for its row, and
the per-instance statistics are built only when a call leaves the stream.
The trace scores every row with numpy's log and square, and keeps a row's
class where an error bound shows that the learner's own float operations
rank the classes the same way; it scores the other rows with those
operations. So its predictions are exact, and its scores are the
learner's only on the rows it scores again.
"""

import csv
import enum
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import baselines, diagnostics
from .errors import (EmptyLog, EmptyStream, LabelMismatch, ParseError,
                     SchemaMismatch)
from .stream_io import BLOCK_LINES, StreamDataset, _utf8, write_csv


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
    wall_time: float

    @property
    def accuracy(self) -> float:
        return self.correct / self.n

    def to_json(self) -> str:
        # wall_time deliberately omitted: identical runs must serialize
        # byte-identically.
        return json.dumps({
            "classifier": self.classifier,
            "n": self.n,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "confusion": _nested(self.confusion),
        }, indent=2)


def _score(name: str, pairs, wall_time: float = 0.0) -> EvalReport:
    """The report on (true, predicted) pairs."""
    confusion = dict(Counter(pairs))
    correct = sum(count for (t, p), count in confusion.items() if t == p)
    return EvalReport(name, sum(confusion.values()), correct, confusion,
                      wall_time)


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
    """Single-pass test-then-train over the whole stream."""
    if ds.n_instances == 0:
        raise EmptyStream("cannot evaluate on an empty stream")
    bound = getattr(classifier, "schema", None)
    if bound is not None and bound != ds.schema:
        raise SchemaMismatch(
            f"classifier {classifier.name!r} is bound to a different schema")
    labels = ds.labels()
    predictions = []
    start = time.perf_counter()
    for (features, _), true in zip(ds._rows(), labels):
        predictions.append(classifier.predict(features))
        classifier.update(features, true)
    elapsed = time.perf_counter() - start
    return _score(classifier.name, zip(labels, predictions), elapsed)


class NaiveBayesLearner(Classifier):
    """Streaming naive Bayes: per-class Gaussians for numeric features
    (mean/variance maintained incrementally, variance floored at 1e-9),
    per-class frequency tables with add-one smoothing for nominal
    features, add-one-smoothed class priors. Ties break toward the
    earlier class in schema order.

    update keeps, per (class, feature), the Gaussian's (mean, variance,
    log(2*pi*variance)) and each frequency table's smoothed total, so
    predict only combines them.

    The learner keeps a cursor into the dataset it is made from. While
    each update is that dataset's next row (a tuple equal to its values)
    and label, those statistics are left unbuilt, and a predict on the
    next row returns that row's entry of the stream's trace: the
    predictions of _naive_bayes_trace, which are this learner's exactly,
    computed on the first such predict and kept across reset. The first
    call that leaves the stream (other values or another label, a row
    holding NaN, which equals nothing, or any call after the last row)
    learns the rows passed so far one at a time, and until reset the
    learner works instance by instance.
    """

    name = "naive-bayes"
    VARIANCE_FLOOR = 1e-9
    CURSOR_ROWS = 256  # the stream's rows the cursor holds as Python values

    def __init__(self, ds: StreamDataset):
        self.schema = ds.schema
        self._features = ds.feature_schema()
        self._numeric_at = [f for f, a in enumerate(self._features)
                            if not a.is_nominal]
        self._nominal_at = [f for f, a in enumerate(self._features)
                            if a.is_nominal]
        self._classes = ds.class_values
        self._stream = ds
        self._trace = None  # the stream's predicted codes, made on first use
        self.reset()

    def reset(self):
        k = len(self._classes)
        self._n = 0
        self._class_counts = [0] * k
        # numeric: (count, mean, M2) Welford accumulators per (class, feature)
        self._gauss = [[None if a.is_nominal else (0, 0.0, 0.0)
                        for a in self._features] for _ in range(k)]
        # numeric: (mean, var, log(2*pi*var)), None before the first value;
        # nominal: the frequency table
        self._terms = [[[0] * len(a.values) if a.is_nominal else None
                        for a in self._features] for _ in range(k)]
        # nominal: sum(table) + len(table), the smoothed denominator
        self._totals = [[len(a.values) if a.is_nominal else None
                         for a in self._features] for _ in range(k)]
        # the stream's rows learned while on it, None once off it; the
        # stream's rows from _block_start on, CURSOR_ROWS at most
        self._cursor = 0
        self._block_start, self._block = 0, []

    def _class_index(self, label):
        return self._classes.index(label)

    def _next_row(self, features):
        """The class code of the stream's row at the cursor if features
        are that row's values, else None."""
        at = self._cursor - self._block_start
        if at == len(self._block):  # the next block; empty past the end
            self._block_start, at = self._cursor, 0
            self._block = list(self._stream._rows(
                self._cursor, self._cursor + self.CURSOR_ROWS))
            if not self._block:
                return None
        row, code = self._block[at]
        # == on a numpy array would compare elementwise
        if isinstance(features, tuple) and features == row:
            return code
        return None

    def _traced(self) -> bool:
        """Whether the stream's trace is there, made on the first call."""
        if self._trace is None:
            try:
                self._trace = _naive_bayes_trace(self._stream,
                                                 self.VARIANCE_FLOOR)
            except (OverflowError, ValueError):
                # ** 2 of a large finite value, or math.log of a variance
                # floored at 0: row by row the call that meets it raises
                self._trace = ()
        return len(self._trace) > 0

    def _leave_stream(self):
        """Learn the rows before the cursor one at a time; until reset,
        every call is served instance by instance."""
        for features, code in self._stream._rows(0, self._cursor):
            self._learn(features, code)
        self._cursor, self._block = None, []

    def update(self, features, label):
        if self._cursor is not None:
            code = self._next_row(features)
            if code is not None and label == self._classes[code]:
                self._cursor += 1
                return
            self._leave_stream()
        self._learn(features, self._class_index(label))

    def _learn(self, features, c):
        self._n += 1
        self._class_counts[c] += 1
        gauss, terms, totals = self._gauss[c], self._terms[c], self._totals[c]
        for f in self._numeric_at:
            value = features[f]
            count, mean, m2 = gauss[f]
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            gauss[f] = (count, mean, m2)
            var = m2 / count
            if var < self.VARIANCE_FLOOR:
                var = self.VARIANCE_FLOOR
            terms[f] = (mean, var, math.log(2.0 * math.pi * var))
        for f in self._nominal_at:
            terms[f][features[f]] += 1
            totals[f] += 1

    def predict(self, features):
        if self._cursor is not None:
            if self._next_row(features) is not None and self._traced():
                return self._classes[self._trace[self._cursor]]
            self._leave_stream()
        best_c = 0
        best_score = None
        for c, score in enumerate(self._scores(features)):
            if score is not None and (best_score is None
                                      or score > best_score):
                best_score = score
                best_c = c
        return self._classes[best_c]

    def _scores(self, features) -> list:
        """Each class's log score for features from the statistics learned
        so far; None for a class that predict passes over."""
        k = len(self._classes)
        n = self._n
        log = math.log
        scores = []
        for c, count in enumerate(self._class_counts):
            # a class never seen in training has no likelihood model; it
            # cannot outscore trained classes just by skipping the penalty
            if count == 0 and n > 0:
                scores.append(None)
                continue
            score = log((count + 1) / (n + k))
            for value, term, total in zip(features, self._terms[c],
                                          self._totals[c]):
                if total is not None:  # nominal: term is the table
                    score += log((term[value] + 1) / total)
                elif term is not None:  # None: no evidence from it yet
                    mean, var, log_norm = term
                    score -= 0.5 * (log_norm + (value - mean) ** 2 / var)
            scores.append(score)
        return scores


def _naive_bayes_trace(ds: StreamDataset, variance_floor: float):
    """The class codes NaiveBayesLearner predicts in a prequential pass
    over ds, all at once. As predict's loop does, each row takes its first
    trained class in schema order and changes only to a strictly greater
    score; at t = 0 no class is trained and the first class is taken.

    The predictions are exact; the scores behind them are the learner's
    only on the rows step 2 scores again. Step 1 scores every row with
    np.log and np.square, which differ from math.log and ** 2 in the last
    bits on some values (and np.log with numpy's SIMD dispatch), and keeps
    each score's size, the sum of its terms' magnitudes. A row is settled
    when its best trained class beats every other trained class by more
    than the two classes' error bounds, tol = scale * size: then the exact
    scores order the classes the same way. Step 2 scores the other rows,
    and those with a score that is not finite, with the learner's own
    operations (_naive_bayes_scores), so exact ties break its way.
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
    best_score, best_tol = np.zeros(n), np.zeros(n)
    others_high = np.full(n, -np.inf)  # max of score + tol over the rest
    taken, unsure = np.zeros(n, bool), np.zeros(n, bool)
    runs = _nominal_runs(ds)
    for c in range(k):
        score, trained, tol = _class_scores(ds, c, variance_floor, None,
                                            np.log, np.square, runs)
        tol *= scale  # from size to the bound, in place
        with np.errstate(invalid="ignore"):  # a NaN score is never greater
            high = score + tol
            unsure |= trained & ~np.isfinite(high)
            take = trained & (~taken | (score > best_score))
            # the rest gains a class that does not take the lead, or the
            # one it takes the lead from
            np.maximum(others_high, high, out=others_high,
                       where=trained & taken & ~take)
            np.maximum(others_high, best_score + best_tol, out=others_high,
                       where=take & taken)
        best[take] = c
        best_score[take] = score[take]
        best_tol[take] = tol[take]
        taken |= trained
        del score, tol, high  # freed before the next class's are made
    with np.errstate(invalid="ignore"):
        rows = np.flatnonzero(taken & (unsure | ~(best_score - best_tol
                                                  > others_high)))
    best_score, taken = np.zeros(len(rows)), np.zeros(len(rows), bool)
    for c in range(k if len(rows) else 0):
        score, trained = _naive_bayes_scores(ds, c, variance_floor, rows)
        with np.errstate(invalid="ignore"):
            take = trained & (~taken | (score > best_score))
        best[rows[take]] = c
        best_score[take] = score[take]
        taken |= trained
    return best


def _naive_bayes_scores(ds: StreamDataset, c: int, variance_floor: float,
                        rows=None):
    """(scores, trained): class c's score at each of rows (an index array;
    by default every row) of a prequential naive Bayes pass over ds, and
    whether class c has a row before it.

    Where trained, the score is bit for bit the one NaiveBayesLearner
    gives class c when it predicts row t after learning rows [0, t);
    elsewhere it means nothing. The float operations are the learner's,
    in its order: only the Welford mean recurrence runs in Python, M2 is
    its left fold by np.cumsum, math.log and ** 2 are applied by Python,
    and the terms are added in schema order.
    """
    score, trained, _ = _class_scores(ds, c, variance_floor, rows,
                                      _logs, _squares)
    return score, trained


def _class_scores(ds, c, variance_floor, rows, log, square, runs=None):
    """(scores, trained, size) as _naive_bayes_scores gives them, with log
    and square as the kernels; size is the sum of each score's terms'
    magnitudes, a Gaussian's 0.5 * (|log(2 pi var)| + (x - mean)**2 / var).
    Terms are made BLOCK_LINES rows at a time, so no more Python floats
    or temporary values than that are alive. runs is _nominal_runs(ds),
    made here if not given: a caller that scores several classes sorts
    each nominal column once.

    Whatever the kernels, this raises where the learner's math.log and
    ** 2 would for any row's values: ValueError for a variance of class c
    at or below 0, read by a later row or not, since the learner takes its
    log in the update that makes it; OverflowError for a difference too
    large to square, read by a trained row or not.
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
            var[var < variance_floor] = variance_floor
            spread = 2.0 * math.pi * var
            if (spread <= 0).any():
                raise ValueError("math domain error")
            for out, t in blocks:
                at = last[t]
                diff = col[t] - mean[at]
                # ** 2 raises OverflowError here if the learner's would
                _squares(diff[np.abs(diff) >= 2.0 ** 511])
                log_norm = log(spread[at])
                quad = square(diff) / var[at]
                score[out] -= 0.5 * (log_norm + quad)
                size[out] += 0.5 * (np.abs(log_norm) + quad)
    return score, before[rows] > 0, size


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
    """The running means of the array values, as NaiveBayesLearner._learn
    makes them, BLOCK_LINES at a time."""
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
    if len(labels.codes) == 0:
        raise EmptyStream("cannot audit against an empty stream")
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
                                    "<length mismatch>", "<length mismatch>")
            for i, (a, b) in enumerate(zip(ds_labels, true_col)):
                if a != b:
                    raise LabelMismatch(i, a, b)
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
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_prediction_log(fh)
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
