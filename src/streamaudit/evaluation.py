"""Prequential (interleaved test-then-train) evaluation and the audit
protocol that grades accuracy figures against the naive bars.

Each instance is predicted first and trained on second, in stream order,
with no lookahead; accuracy accumulates from the first instance (no
warm-up exclusion, no fading factor). Reports count pairs of class codes,
each column encoded once; a prediction outside the class values extends
the class list.

The audit verdict compares a subject accuracy against three label-only
bars computed from the same stream: the incremental-majority bar, the
independence bar (sum of squared priors) and the persistence bar. A
classifier only demonstrates adaptation worth having when it lands
strictly above the persistence bar and not below the majority bar; ties
with persistence prove nothing and grade as BelowPersistence.

NaiveBayesLearner is the subject of an audit, made from one stream: its
calls must walk that stream in order, and any other call raises
SchemaMismatch. Each row is compared once: update skips the comparison
for the tuple predict has just matched. Each predict reads the code
_naive_bayes_trace computed for its row: exactly the prediction of a
row-by-row learner (OracleNaiveBayes in tests/oracles.py), from numpy
kernels where an error bound shows they rank the classes as its float
operations do, and from those operations elsewhere.
"""

import array
import csv
import enum
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import baselines, diagnostics
from .errors import (EmptyStream, LabelMismatch, ParseError, SchemaMismatch,
                     ScoreOverflow)
from .stream_io import StreamDataset, _utf8, write_csv

_VARIANCE_FLOOR = 1e-9  # naive Bayes' least Gaussian variance
_CURSOR_ROWS = 256  # the stream's rows NaiveBayesLearner holds as Python values
_UNMATCHED = object()  # NaiveBayesLearner's last match when none holds


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


def _score(name: str, true, predicted, classes) -> EvalReport:
    """The report on the code pairs that occur, with no k * k table."""
    pairs, counts = np.unique(true.astype(np.int64) * len(classes)
                              + predicted, return_counts=True)
    if not len(pairs):
        raise EmptyStream()
    t, p = np.divmod(pairs, len(classes))
    confusion = {(classes[a], classes[b]): count for a, b, count
                 in zip(t.tolist(), p.tolist(), counts.tolist())}
    return EvalReport(name, len(true), int(counts[t == p].sum()), confusion)


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


def prequential_eval(classifier, ds: StreamDataset) -> EvalReport:
    """Test-then-train over the stream, on codes. The classifier needs a
    name, predict(features) returning a class value and update(features,
    label); a classifier with a schema other than None must hold ds's, or
    SchemaMismatch is raised before any call."""
    bound = getattr(classifier, "schema", None)
    if bound is not None and bound != ds.schema:
        raise SchemaMismatch(
            f"classifier {classifier.name!r} is bound to a different schema")
    classes = list(ds.class_values)
    predictions = []
    for features, code in ds._rows():
        predictions.append(classifier.predict(features))
        classifier.update(features, classes[code])
    return _score(classifier.name, ds.columns[ds.class_index],
                  diagnostics._codes(predictions, classes), classes)


class NaiveBayesLearner:
    """Streaming naive Bayes over the dataset it is made from: per-class
    Gaussians for numeric features (variance floored at 1e-9), add-one
    frequency tables for nominal ones, add-one class priors; ties break
    toward the earlier class in schema order.

    The learner is a cursor into that dataset, and its calls must walk it
    in order. update takes the row at the cursor (a tuple equal to its
    values, NaN matching NaN) and its label, and moves the cursor on.
    predict takes that row and returns its entry of the stream's trace,
    the predictions of _naive_bayes_trace, computed on the first predict
    and kept across reset as an array of class codes. Any other call
    (another row's values, a list or an array, another label, or any call
    after the last row) raises SchemaMismatch naming the row at the
    cursor, and moves nothing. A row is compared once: a call passed the
    very tuple that an earlier call at the cursor matched skips the
    comparison, as update does after predict in a prequential pass.
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
        # the tuple last found to be the row at the cursor; no caller has
        # _UNMATCHED to pass
        self._matched = _UNMATCHED

    def predict(self, features):
        if features is not self._matched:
            self._match(features)
        if self._trace is None:  # indexed without making numpy scalars
            codes = _naive_bayes_trace(self._stream)
            self._trace = array.array(codes.dtype.char, codes.tobytes())
        return self._classes[self._trace[self._cursor]]

    def update(self, features, label):
        if features is not self._matched:
            self._match(features)
        expected = self._classes[
            self._block[self._cursor - self._block_start][1]]
        if label != expected:
            raise SchemaMismatch(f"row {self._cursor}: label {label!r} is "
                                 f"not the stream's {expected!r}")
        self._cursor += 1
        self._matched = _UNMATCHED

    def _match(self, features):
        """Take features as the row at the cursor; SchemaMismatch if they
        are not that row's values."""
        at = self._cursor - self._block_start
        if at == len(self._block):  # the next block; empty past the end
            self._block_start, at = self._cursor, 0
            self._block = list(self._stream._rows(
                self._cursor, self._cursor + _CURSOR_ROWS))
            if not self._block:
                raise SchemaMismatch(f"row {self._cursor}: past the end of "
                                     "the stream the learner is bound to")
        row = self._block[at][0]
        # == on a numpy array would compare elementwise
        if not (isinstance(features, tuple)
                and (features == row or _nan_equal(features, row))):
            raise SchemaMismatch(f"row {self._cursor}: not the values of "
                                 "the stream the learner is bound to")
        self._matched = features


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
    bits on some values (and np.log with numpy's SIMD dispatch), and with
    each class's running means taken as np.cumsum(x) / count, which differ
    from the learner's Welford means in the last bits. With each score it
    keeps tol, a bound on how far the learner's score can lie from it
    (see _class_scores); an untrained class scores -inf with a bound of 0.
    A row is settled when its best class beats every other class by more
    than the two classes' bounds: then the exact scores order the classes
    the same way. Step 2 scores the other rows after row 0, and those with
    a score or a bound that is not finite, by the learner's own operations
    and rule; only it runs the Welford recurrence, over the class rows
    before the last row it scores. Where the learner's ** 2 raises,
    ScoreOverflow names the first row.
    """
    n, k = ds.n_instances, len(ds.class_values)
    best = np.zeros(n, np.min_scalar_type(k - 1))
    best_score, best_tol = np.full(n, -np.inf), np.zeros(n)
    others_high = np.full(n, -np.inf)  # max of score + tol over the rest
    unsure = np.zeros(n, bool)
    runs = _nominal_runs(ds)
    overflow = n  # the first row where the learner's ** 2 raises, if any
    for c in range(k):
        score, trained, tol, first = _class_scores(
            ds, c, None, np.log, np.square, runs, running_sums=True)
        overflow = min(overflow, first)
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


def _class_scores(ds, c, rows, log, square, runs=None, running_sums=False):
    """(scores, trained, tol, first): _naive_bayes_scores' two with log
    and square as the kernels, and tol, a bound on how far each score may
    lie from the learner's where trained. Each term is made over all of
    rows at once: its temporaries, arrays as long as rows and the exact
    kernels' Python floats, are of the same order as the scores and bounds
    returned, so blocks of rows would only trim a constant factor. runs is
    _nominal_runs(ds), made here if not given: a caller that scores
    several classes sorts each nominal column once.

    The means and variances are the learner's, from the Welford recurrence
    over class c's rows before the last of rows. With running_sums, a
    numeric feature whose values are all finite and under 2**494 in
    magnitude takes its means as np.cumsum(x) / count instead, and tol
    covers the difference (see _running_moments).

    The bound. A score is m = len(ds.schema) terms, the prior and one per
    feature, added left to right. np.log and math.log, and np.square and
    ** 2, each lie within 4 ulps of the true value, so the two kernels'
    results differ by less than 2**-49 of themselves. size, the sum of the
    terms' magnitudes (a Gaussian's 0.5 * (|log(2 pi var)| + quad)), bounds
    every term and every partial sum, so with the three roundings that make
    a term and add it (each under 2**-53 of a value no larger than size, on
    each side) one term made from the same float arguments moves the two
    scores apart by less than 2**-48 * size, and m terms by less than
    m * 2**-48 * size. 2**-44 per term is a margin of 16: kernels 2**7
    ulps off are safe. tol is m * 2**-44 * size, plus each Gaussian term's
    radius where its arguments come from running sums.

    first is the first of rows where the row-by-row learner's ** 2 raises
    OverflowError whatever the kernels (a ** 2 kernel raises itself), or n:
    where class c is trained and the row's value is too far from c's mean
    to square. Where c is untrained the difference is 0: nothing reads it.
    """
    n, k = ds.n_instances, len(ds.class_values)
    rows = np.arange(n) if rows is None else rows
    runs = _nominal_runs(ds) if runs is None else runs
    scale = len(ds.schema) * 2.0 ** -44
    is_c = ds.columns[ds.class_index] == c
    # c's rows in [0, t) at each row t of rows, and the last of them
    before = (np.cumsum(is_c, dtype=np.int32) - is_c)[rows]
    at = np.maximum(before - 1, 0).astype(np.intp)
    stop = int(rows.max()) if len(rows) else 0  # no score reads a later row
    score = log((before + 1) / (rows + k))
    size = np.abs(score)
    first = n
    for j, (attr, col) in enumerate(zip(ds.schema[:-1], ds.columns)):
        if attr.is_nominal:
            same = _earlier_equal(is_c, *runs[j])[rows]
            term = log((same + 1) / (before + len(attr.values)))
            score += term
            size += np.abs(term)
            continue
        x = col[:stop][is_c[:stop]]
        if not len(x):
            continue  # never trained
        with np.errstate(all="ignore"):  # inf and NaN values, as in Python
            if running_sums and _small(col, x):
                mean, var, a1, a2, a3 = _running_moments(x, scale)
            else:
                mean, var = _welford_moments(x)
                a1 = None
            spread = 2.0 * math.pi * var  # positive or NaN
            diff = col[rows] - mean.take(at)
            diff[before == 0] = 0.0  # c untrained: nothing reads it
            far = np.abs(diff)
            if a1 is None:  # with running sums none raises (see _small)
                for i in np.flatnonzero(far >= 2.0 ** 511).tolist():
                    try:
                        float(diff[i]) ** 2  # raises if the learner's does
                    except OverflowError:
                        first = min(first, int(rows[i]))
                        break
            log_norm = log(spread.take(at))
            quad = square(diff) / var.take(at)
            score -= 0.5 * (log_norm + quad)
            size += 0.5 * (np.abs(log_norm) + quad)
            if a1 is not None:  # the term's radius, in units of scale
                quad *= a2.take(at)
                far *= a3.take(at)
                far += quad
                far += a1.take(at)
                size += far
    return score, before > 0, scale * size, first


def _nominal_runs(ds: StreamDataset) -> dict:
    """For each nominal feature, by schema position: its rows sorted stably
    by value, and where each value's run starts in that order and how long
    it is. They depend on the column alone, not on the class."""
    runs = {}
    for j, (attr, col) in enumerate(zip(ds.schema[:-1], ds.columns)):
        if attr.is_nominal:
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


def _small(col, x) -> bool:
    """Whether the class values x are finite and every finite value of the
    column col is under 2**494 in magnitude: then no difference from a
    mean reaches 2**495, so no square raises (** 2 raises past 2**511.5)
    and no sum of fewer than 2**31 squares overflows. (A bound that does
    overflow only sends its row to step 2.)"""
    magnitude = np.abs(col)
    return bool(np.isfinite(x).all()) and \
        magnitude[magnitude < np.inf].max(initial=0.0) < 2.0 ** 494


def _welford_moments(x):
    """(means, variances) of the running values x as the learner makes
    them: Welford means, M2 as their left fold by np.cumsum, and the
    variances M2 / count floored at _VARIANCE_FLOOR."""
    mean = _welford_means(x)
    delta = x - np.concatenate(([0.0], mean[:-1]))
    var = np.cumsum(delta * (x - mean)) / np.arange(1, len(x) + 1)
    var[var < _VARIANCE_FLOOR] = _VARIANCE_FLOOR
    return mean, var


def _running_moments(x, scale: float):
    """(means, variances, a1, a2, a3) of the running values x (finite, see
    _small) for step 1 of the trace: the means np.cumsum(x) / count, and
    M2 and the floored variances made from them as _welford_moments makes
    them from the learner's. At a row whose difference from class row i's
    mean is d, with quad = d**2 / var, the Gaussian term of the learner's
    score lies within scale * (a1[i] + quad * a2[i] + |d| * a3[i]) of this
    one, where both are made from the same kernels.

    The bound (u = 2**-53, M_i = max |x_j| over j <= i; first order in u,
    as Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2, bounds recursive summation):
    - Means. np.cumsum adds left to right, within u * (i - 1) * i * M_i of
      the exact sum, and the division adds u * M_i: within u * i * M_i of
      the exact mean. The learner's mean m_i = m_(i-1) + (x_i - m_(i-1)) / i
      rounds three times, under u * M_i * (1 + 4 / i) in all, and step j's
      error reaches step i scaled by j / i: within u * M_i * ((i + 1) / 2
      + 4). r_i = 2**-50 * M_i * (i + 3) is over 5 times their sum; the
      2**-1020 added to M_i covers results that underflow.
    - M2. Both sum q_j = a_j * b_j, a_j = x_j - m_(j-1) and b_j = x_j - m_j,
      by np.cumsum. Both take m_0 = 0 and m_1 = x_1 exactly, so q_1 = 0 on
      both sides, and the sums below start at j = 2. Each difference moves
      by the means' radius and a rounding of itself, so q_j moves by at
      most r_(j-1) |b_j| + r_j |a_j| + r_j r_(j-1) + 6u |q_j|, and the two
      left folds by 2u (i - 1) * sum |q_j| more. r is nondecreasing, and
      |q_j| <= |a_j| (2 M_i + r_i), where 2u (i + 5) * 2 M_i is under
      0.76 r_i. So with A_i = sum_(j<=i) (|a_j| + |b_j|), the two M2 lie
      within r_i * (2 A_i + i * r_i), less 6u * sum |q_j|.
    - Variances. M2 / i rounds on each side, under 2u |var| (|var| is at
      most sum |q_j| / i), and the floor moves no two values further
      apart: ev_i = r_i * (2 A_i + i * r_i) / i + 2u * floor, whose last
      term holds the 2u * lo below and any underflow. Then
      lo = max(var - ev, floor) is at most either floored variance.
    - The term. The learner's difference lies within rd = r + 4u |d| of d
      (each side rounds the subtraction), so |log var - log learner's var|
      <= ev / lo, |d**2 / var - its learner's| <= (rd (2 |d| + rd)
      + quad * ev) / lo, and rd (2 |d| + rd) <= (r**2 + 2 r |d|
      + 8u * quad * var) (1 + 4u), with r**2 <= ev. 2 pi var rounds on
      each side, 2u more on the log: ev * lo / lo covers it. The term is
      half the two, so its radius is at most 0.5 * (2 ev + quad * (ev
      + 8u var) + 2 r |d|) / lo; a1, a2 and a3 take twice that, a margin
      of 2 for the first-order steps, the bound's own roundings and the
      partial sums of a score whose size grows by the radius.
    """
    count = np.arange(1.0, len(x) + 1)
    mean = np.cumsum(x) / count
    r = np.maximum.accumulate(np.abs(x))
    r += 2.0 ** -1020
    r *= (count + 3.0) * 2.0 ** -50
    a = x - np.concatenate(([0.0], mean[:-1]))
    a[:1] = 0.0  # q_1 = x_1 * 0 on both sides: it adds nothing to e2
    b = x - mean
    var = np.cumsum(a * b) / count
    var[var < _VARIANCE_FLOOR] = _VARIANCE_FLOOR
    ev = np.cumsum(np.abs(a, out=a) + np.abs(b, out=b))  # A
    del a, b
    ev *= 2.0
    ev += count * r
    ev *= r
    ev /= count
    ev += 2.0 ** -52 * _VARIANCE_FLOOR
    inv = np.maximum(var - ev, _VARIANCE_FLOOR)
    np.divide(1.0 / scale, inv, out=inv)
    a2 = 2.0 ** -50 * var
    a2 += ev
    a2 *= inv
    ev *= inv
    ev *= 2.0
    r *= inv
    r *= 2.0
    return mean, var, ev, a2, r


def _welford_means(values):
    """The running means of the array values, as the row-by-row learner's
    update (OracleNaiveBayes in tests/oracles.py) makes them."""
    means = []
    append = means.append
    mean = 0.0
    for count, value in enumerate(values.tolist(), 1):
        mean += (value - mean) / count
        append(mean)
    return np.array(means)


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


def audit_prediction_log(log: Sequence, ds_labels=None):
    """Audit an externally produced (true, predicted) log.

    When ds_labels, a label sequence or a StreamDataset, is supplied the
    log's true-label column must match it exactly; the bars come from that
    column's codes either way. Returns (AuditVerdict, EvalReport).
    """
    log = list(log)
    true = diagnostics._encode([t for t, _ in log])  # once, for every bar
    classes = list(true.classes)  # a copy: no predicted label joins the bars
    if ds_labels is not None:
        ref = diagnostics._encode(ds_labels)
        if len(ref.codes) != len(log):
            raise LabelMismatch(min(len(ref.codes), len(log)),
                                f"prediction log has {len(log)} rows, "
                                f"dataset has {len(ref.codes)}")
        # the reference's k classes in the log's codes, then its rows
        codes = diagnostics._codes(ref.classes, classes).take(ref.codes)
        wrong = np.flatnonzero(codes != true.codes)
        if len(wrong):
            i = int(wrong[0])
            raise LabelMismatch(i, f"true label at index {i} is {log[i][0]!r}"
                                   f", dataset has {classes[codes[i]]!r}")
    report = _score("prediction-log", true.codes,
                    diagnostics._codes([p for _, p in log], classes), classes)
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
        header = next(filter(None, reader), [])  # the first non-blank row
        if [c.strip() for c in header] != ["true", "predicted"]:
            raise ParseError("expected a CSV with header 'true,predicted'",
                             line=reader.line_num if header else None)
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
