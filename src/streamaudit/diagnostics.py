"""Label-sequence statistics that expose autocorrelation.

The central quantities:

* independence bar: sum of squared class priors, the accuracy a
  persistence (predict-the-previous-label) predictor would get if the
  labels were iid with the observed priors;
* persistence bar: the accuracy that predictor actually gets on the
  stream. A large gap between the two means the labels are serially
  correlated, and restart-happy "adaptive" classifiers get a free ride.

All functions take a plain ordered sequence of hashable labels, so they
work on StreamDataset.labels() and on synthetic 0/1 sequences alike.
"""

import json
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyStream, LagTooLarge, NotBinary, ZeroVariance
from .stream_io import write_csv

#: Cold-start policy: predict the first instance's own label (the first
#: prediction is then always counted correct). Alternative: pass an
#: explicit label value. Whatever policy is used must be shared across
#: the baselines for the rho endpoint identities to hold exactly.
FIRST_LABEL = "first-label"


@dataclass(frozen=True)
class LabelDistribution:
    """Per-class counts and relative frequencies of a label sequence."""

    counts: dict
    n: int

    @property
    def frequencies(self) -> dict:
        return {c: k / self.n for c, k in self.counts.items()}

    def majority_class(self):
        return max(self.counts, key=lambda c: self.counts[c])


@dataclass(frozen=True)
class AcfSeries:
    """Sample autocorrelation r(k) for lags 1..max_lag."""

    lags: tuple
    values: tuple

    def __getitem__(self, lag: int) -> float:
        return self.values[self.lags.index(lag)]

    def to_csv(self) -> str:
        return write_csv(("lag", "acf"), zip(self.lags, self.values))


@dataclass(frozen=True)
class RunLengthStats:
    """Maximal constant-label runs: overall and per-class aggregates."""

    count: int
    mean: float
    max: int
    per_class: dict  # class -> {"count", "mean", "max"}


@dataclass(frozen=True)
class DiagnosticsReport:
    distribution: LabelDistribution
    independence_bar: float
    persistence_bar: float
    run_lengths: RunLengthStats
    acf: Optional[AcfSeries]
    acf_note: Optional[str] = None

    def to_json(self) -> str:
        doc = {
            "n": self.distribution.n,
            "class_priors": self.distribution.frequencies,
            "independence_bar": self.independence_bar,
            "persistence_bar": self.persistence_bar,
            "run_lengths": {
                "count": self.run_lengths.count,
                "mean": self.run_lengths.mean,
                "max": self.run_lengths.max,
            },
            "acf": list(self.acf.values) if self.acf is not None else None,
        }
        if self.acf_note:
            doc["acf_note"] = self.acf_note
        return json.dumps(doc, indent=2)


def label_distribution(labels: Sequence) -> LabelDistribution:
    if len(labels) == 0:
        raise EmptyStream("cannot compute a distribution of zero labels")
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return LabelDistribution(counts, len(labels))


def independence_bar(dist: LabelDistribution) -> float:
    """Sum of squared priors: persistence accuracy expected on iid labels."""
    return math.fsum(f * f for f in dist.frequencies.values())


def first_prediction(labels: Sequence, cold_start=FIRST_LABEL):
    """The prediction for the first instance: an explicit cold_start label
    value, or under FIRST_LABEL the first instance's own label."""
    if len(labels) == 0:
        raise EmptyStream("an empty stream has no first instance")
    return labels[0] if cold_start == FIRST_LABEL else cold_start


def persistence_accuracy(labels: Sequence, cold_start=FIRST_LABEL) -> float:
    """Accuracy of predicting each label as a copy of the previous one,
    the first instance predicted by first_prediction(labels, cold_start).
    """
    correct = int(first_prediction(labels, cold_start) == labels[0])
    n = len(labels)
    correct += sum(labels[t] == labels[t - 1] for t in range(1, n))
    return correct / n


def autocorrelation(labels: Sequence, max_lag: int,
                    class_order: Optional[Sequence] = None) -> AcfSeries:
    """Sample autocorrelation of a binary label sequence at lags 1..max_lag.

    Labels are encoded 0/1 in class_order (default: first-occurrence
    order); for binary data r(k) is invariant to the encoding. Uses the
    standard full-series-variance normalization:

        r(k) = sum_{t=1..n-k} (x_t - mean)(x_{t+k} - mean)
               / sum_{t=1..n} (x_t - mean)^2
    """
    n = len(labels)
    classes = list(class_order) if class_order is not None else []
    for lab in labels:
        if lab not in classes:
            classes.append(lab)
    if len(classes) > 2:
        raise NotBinary(f"{len(classes)} distinct classes; ACF needs 2")
    if len(set(labels)) < 2:
        raise ZeroVariance("only one class occurs; ACF undefined")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} >= stream length {n}")

    index = {c: i for i, c in enumerate(classes)}
    x = np.array([index[lab] for lab in labels], dtype=np.float64)
    x -= x.mean()
    denom = float(np.dot(x, x))
    values = tuple(float(np.dot(x[:-k], x[k:])) / denom
                   for k in range(1, max_lag + 1))
    return AcfSeries(tuple(range(1, max_lag + 1)), values)


def run_lengths(labels: Sequence) -> RunLengthStats:
    """Lengths of maximal constant-label runs; their sum is n."""
    if len(labels) == 0:
        raise EmptyStream("run lengths of an empty stream")
    runs = [(lab, sum(1 for _ in grp)) for lab, grp in groupby(labels)]
    lengths = [length for _, length in runs]
    per_class = {}
    for lab, length in runs:
        bucket = per_class.setdefault(lab, [])
        bucket.append(length)
    per_class_stats = {
        lab: {"count": len(ls), "mean": sum(ls) / len(ls), "max": max(ls)}
        for lab, ls in per_class.items()
    }
    return RunLengthStats(len(runs), len(labels) / len(runs), max(lengths),
                          per_class_stats)


def diagnose(ds_or_labels, max_lag: int = 96,
             cold_start=FIRST_LABEL) -> DiagnosticsReport:
    """Full report: priors, both bars, run lengths and (when computable)
    the ACF. Accepts a StreamDataset or a bare label sequence.

    When the ACF is not computable (single class, more than two classes,
    or too short a stream for max_lag) the report carries acf=None and a
    note instead of failing.
    """
    labels = ds_or_labels.labels() if hasattr(ds_or_labels, "labels") \
        else list(ds_or_labels)
    dist = label_distribution(labels)
    acf = None
    note = None
    try:
        acf = autocorrelation(labels, max_lag)
    except (ZeroVariance, NotBinary, LagTooLarge) as exc:
        note = str(exc)
    return DiagnosticsReport(
        distribution=dist,
        independence_bar=independence_bar(dist),
        persistence_bar=persistence_accuracy(labels, cold_start=cold_start),
        run_lengths=run_lengths(labels),
        acf=acf,
        acf_note=note,
    )
