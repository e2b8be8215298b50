"""Label-sequence statistics that expose autocorrelation.

The central quantities:

* independence bar: sum of squared class priors, the accuracy a
  persistence (predict-the-previous-label) predictor would get if the
  labels were iid with the observed priors;
* persistence bar: the accuracy that predictor actually gets on the
  stream. A large gap between the two means the labels are serially
  correlated, and restart-happy "adaptive" classifiers get a free ride.

All functions take a plain ordered sequence of hashable labels (such as
StreamDataset.labels() or a synthetic 0/1 sequence) or a StreamDataset,
whose class codes they read directly, with any number of classes.
Either way the labels are encoded once, as int codes in first-occurrence
order (see _encode), and the statistics are numpy passes over the codes.

Cold start: the first instance is predicted as its own label, so it
counts as correct and every label-only bar is (1 + hits) / n. The
restart kernel in baselines follows the same rule, which is what makes
its rho = 0 and rho = 1 endpoints equal the majority and persistence
bars exactly.
"""

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyStream, LagTooLarge, ZeroVariance
from .stream_io import StreamDataset, write_csv

@dataclass(frozen=True)
class LabelDistribution:
    """Per-class counts and relative frequencies of a label sequence."""

    counts: dict
    n: int

    @property
    def frequencies(self) -> dict:
        return {c: k / self.n for c, k in self.counts.items()}


@dataclass(frozen=True)
class AcfSeries:
    """Sample autocorrelation r(k) for lags 1..max_lag."""

    lags: tuple
    values: tuple

    def __getitem__(self, lag: int) -> float:
        if lag not in self.lags:
            raise KeyError(f"lag {lag!r} is not in 1..{len(self.lags)}")
        return self.values[self.lags.index(lag)]

    def to_csv(self) -> str:
        return write_csv(("lag", "acf"), zip(self.lags, self.values))


@dataclass(frozen=True)
class RunLengthStats:
    """Maximal constant-label runs: how many, their mean and longest."""

    count: int
    mean: float
    max: int


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


class _Codes(NamedTuple):
    """A label sequence as int32 codes: codes[t] indexes classes, the
    distinct labels in first-occurrence order."""

    codes: np.ndarray
    classes: list


def _encode(labels) -> _Codes:
    """The codes of a label sequence, a StreamDataset or (as it is) a
    _Codes; EmptyStream if there are none. A dataset's class column is
    renumbered by first occurrence, so unused declared values get no code."""
    if isinstance(labels, StreamDataset):
        column = labels.columns[labels.class_index]
        present, first = np.unique(column, return_index=True)
        order = present[np.argsort(first)]
        renumber = np.zeros(len(labels.class_values), np.int32)
        renumber[order] = np.arange(len(order), dtype=np.int32)
        labels = _Codes(renumber.take(column),
                        [labels.class_values[c] for c in order.tolist()])
    elif not isinstance(labels, _Codes):
        if isinstance(labels, np.ndarray):  # Python scalars, not numpy ones
            labels = labels.tolist()
        elif not isinstance(labels, (list, tuple)):
            labels = list(labels)
        classes = []
        labels = _Codes(_codes(labels, classes), classes)
    if len(labels.codes) == 0:
        raise EmptyStream()
    return labels


def _codes(labels, classes: list) -> np.ndarray:
    """labels as int32 codes into classes, a list new labels join in order."""
    next_code = count()  # a new label takes the next code
    index = defaultdict(next_code.__next__, zip(classes, next_code))
    codes = np.fromiter(map(index.__getitem__, labels), np.int32, len(labels))
    classes.extend(list(index)[len(classes):])
    return codes


def label_distribution(labels: Sequence) -> LabelDistribution:
    codes, classes = _encode(labels)
    counts = np.bincount(codes, minlength=len(classes)).tolist()
    return LabelDistribution(dict(zip(classes, counts)), len(codes))


def independence_bar(dist: LabelDistribution) -> float:
    """Sum of squared priors: persistence accuracy expected on iid labels.

    It is also, exactly, the persistence accuracy expected over uniform
    shuffles of the stream, the first label predicting itself: each of the
    n - 1 neighbour pairs is equal with probability
    sum_c S_c (S_c - 1) / (n (n - 1)), so the expected accuracy is
    (1 + sum_c S_c (S_c - 1) / n) / n = sum_c (S_c / n)^2 for class
    counts S_c.
    """
    return math.fsum(f * f for f in dist.frequencies.values())


def persistence_accuracy(labels: Sequence) -> float:
    """Accuracy of predicting each label as a copy of the previous one,
    the first instance predicted as itself."""
    codes = _encode(labels).codes
    hits = int(np.count_nonzero(codes[1:] == codes[:-1]))
    return (1 + hits) / len(codes)


def autocorrelation(labels: Sequence, max_lag: int) -> AcfSeries:
    """Sample autocorrelation at lags 1..max_lag of a label sequence with
    any number of classes: the one-hot indicator series of the classes
    that occur, pooled, with the full-series variance normalization,

        r(k) = sum_c sum_{t=1..n-k} (b^c_t - m_c)(b^c_{t+k} - m_c)
               / sum_c sum_{t=1..n} (b^c_t - m_c)^2
             = (n^2 E_k - n (2Q - H_k - T_k) + (n-k) Q) / (n (n^2 - Q))

    where b^c_t = 1 when x_t = c, S_c counts class c, m_c = S_c / n,
    Q = sum_c S_c^2, E_k counts the equal labels k apart, and H_k and T_k
    sum S[x_t] over the first and the last k labels. Two classes' series
    share one autocovariance, so a binary r(k) is either series' ACF.
    Each value is one division of Python ints: the exact ratio correctly
    rounded, the same on every platform.

    At lag 1, with P the persistence bar and I = Q / n^2 the independence
    bar, r(1) = (P - I - (1 + I)/n + (S[x_1] + S[x_n])/n^2) / (1 - I)
    exactly, so r(1) is (P - I) / (1 - I) to within 2 / (n (1 - I)).
    """
    codes, classes = _encode(labels)
    n = len(codes)
    if len(classes) < 2:
        raise ZeroVariance("only one class occurs; ACF undefined")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} >= stream length {n}")

    counts = np.bincount(codes)
    q = sum(s * s for s in counts.tolist())
    head = np.cumsum(counts.take(codes[:max_lag])).tolist()  # H_k = head[k-1]
    tail = np.cumsum(counts.take(codes[::-1][:max_lag])).tolist()  # T_k
    values = tuple((n * n * int(np.count_nonzero(codes[:-k] == codes[k:]))
                    - n * (2 * q - head[k - 1] - tail[k - 1])
                    + (n - k) * q) / (n * (n * n - q))
                   for k in range(1, max_lag + 1))
    return AcfSeries(tuple(range(1, max_lag + 1)), values)


def run_lengths(labels: Sequence) -> RunLengthStats:
    """Lengths of maximal constant-label runs; their sum is n."""
    codes = _encode(labels).codes
    n = len(codes)
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=n)
    return RunLengthStats(len(lengths), n / len(lengths), int(lengths.max()))


def diagnose(ds_or_labels, max_lag: int = 96) -> DiagnosticsReport:
    """Full report: priors, both bars, run lengths and (when computable)
    the ACF. Accepts a StreamDataset or a bare label sequence.

    When the ACF is undefined (one class, or max_lag >= n) the report
    carries acf=None and a note instead of failing.
    """
    labels = _encode(ds_or_labels)
    dist = label_distribution(labels)
    acf = note = None
    try:
        acf = autocorrelation(labels, max_lag)
    except (ZeroVariance, LagTooLarge) as exc:
        note = str(exc)
    return DiagnosticsReport(
        distribution=dist,
        independence_bar=independence_bar(dist),
        persistence_bar=persistence_accuracy(labels),
        run_lengths=run_lengths(labels),
        acf=acf,
        acf_note=note,
    )
