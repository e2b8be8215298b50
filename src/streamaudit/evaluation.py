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
"""

import csv
import enum
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import baselines, diagnostics
from .errors import (EmptyLog, EmptyStream, LabelMismatch, ParseError,
                     SchemaMismatch)
from .stream_io import StreamDataset, _utf8, write_csv


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
    """

    name = "naive-bayes"
    VARIANCE_FLOOR = 1e-9

    def __init__(self, ds: StreamDataset):
        self.schema = ds.schema
        self._features = ds.feature_schema()
        self._numeric_at = [f for f, a in enumerate(self._features)
                            if not a.is_nominal]
        self._nominal_at = [f for f, a in enumerate(self._features)
                            if a.is_nominal]
        self._classes = ds.class_values
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

    def _class_index(self, label):
        return self._classes.index(label)

    def update(self, features, label):
        c = self._class_index(label)
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
        k = len(self._classes)
        n = self._n
        log = math.log
        best_c = 0
        best_score = None
        for c, count in enumerate(self._class_counts):
            # a class never seen in training has no likelihood model; it
            # cannot outscore trained classes just by skipping the penalty
            if count == 0 and n > 0:
                continue
            score = log((count + 1) / (n + k))
            for value, term, total in zip(features, self._terms[c],
                                          self._totals[c]):
                if total is not None:  # nominal: term is the table
                    score += log((term[value] + 1) / total)
                elif term is not None:  # None: no evidence from it yet
                    mean, var, log_norm = term
                    score -= 0.5 * (log_norm + (value - mean) ** 2 / var)
            if best_score is None or score > best_score:
                best_score = score
                best_c = c
        return self._classes[best_c]


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
        ds_labels = list(ds_labels)
        if ds_labels != true_col:  # then find where
            if len(ds_labels) != len(true_col):
                raise LabelMismatch(min(len(ds_labels), len(true_col)),
                                    "<length mismatch>", "<length mismatch>")
            for i, (a, b) in enumerate(zip(ds_labels, true_col)):
                if a != b:
                    raise LabelMismatch(i, a, b)
    report = _score("prediction-log", log)
    verdict = audit_accuracy(report.accuracy, true_col)
    return verdict, report


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
