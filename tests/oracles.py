"""Slow reference implementations the library's fast paths are checked
against.

* The label-only learners prequential_eval runs, one instance at a time,
  and the sequential SplitMix64 stream that drives the restart learner:
  the per-instance form of baselines' restart kernel and of rng.uniforms.
* Naive Bayes one instance at a time, the reference for the predictions
  and scores of evaluation's whole-stream trace, which NaiveBayesLearner
  serves.
* The label statistics on plain label sequences, one Python step per
  label: distribution, persistence, run lengths and the k-class ACF, and
  the diagnose report and audit verdict built from them.
"""

import json
import math
import operator
from itertools import groupby

from streamaudit.baselines import RestartPolicy
from streamaudit.diagnostics import AcfSeries, LabelDistribution
from streamaudit.errors import EmptyStream, LagTooLarge, ZeroVariance
from streamaudit.evaluation import AuditVerdict
from streamaudit.rng import mix64

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: Cold start of the label-statistics oracles: predict the first instance
#: as its own label, the library's one rule. Any other value is predicted
#: literally.
FIRST_LABEL = "first-label"


class SplitMix64:
    """Sequential SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def bernoulli(self, p: float) -> bool:
        """One draw with success probability p (p=0 never, p=1 always)."""
        return self.random() < p


# -------------------------------------------------------------------- learners

class PersistenceLearner:
    """Predicts the most recently observed label; cold_start before any."""

    name = "persistence"

    def __init__(self, cold_start):
        self._cold_start = cold_start
        self.reset()

    def reset(self):
        self._last = None

    def predict(self, features):
        return self._last if self._last is not None else self._cold_start

    def update(self, features, label):
        self._last = label


class RandomRestartLearner:
    """The rho-parameterized restart classifier as a learner prequential_eval
    runs, one instance at a time; equals baselines.random_restart_run on the
    same stream, seed and cold start."""

    def __init__(self, rho: float, seed: int, cold_start):
        self._policy = RestartPolicy(rho, seed)
        self._cold_start = cold_start
        self.name = f"restart:{rho:g}"
        self.reset()

    def reset(self):
        self._counts = {}  # label -> count since the last restart
        self._rng = SplitMix64(self._policy.seed)

    def predict(self, features):
        if not self._counts:
            return self._cold_start
        # the window's labels are kept in last-seen order, so the first
        # maximum over the reversed keys is the tied label seen last
        return max(reversed(self._counts), key=self._counts.get)

    def update(self, features, label):
        self._counts[label] = self._counts.pop(label, 0) + 1
        if self._policy.rho > 0.0 and self._rng.bernoulli(self._policy.rho):
            self._counts = {label: 1}


class MajorityLearner(RandomRestartLearner):
    """Incremental majority = the restart classifier that never restarts."""

    def __init__(self, cold_start):
        super().__init__(0.0, 0, cold_start)
        self.name = "majority"


class OracleNaiveBayes:
    """Naive Bayes one instance at a time, on any rows: per-class Welford
    Gaussians for numeric features (variance floored at 1e-9), add-one
    frequency tables for nominal ones, add-one class priors. scores
    recomputes every Gaussian log term, variance and table total. The
    reference that NaiveBayesLearner's trace must match prediction for
    prediction, and _naive_bayes_scores score for score."""

    name = "naive-bayes"
    VARIANCE_FLOOR = 1e-9

    def __init__(self, ds):
        self._features = ds.schema[:-1]
        self._classes = ds.class_values
        self.reset()

    def reset(self):
        k = len(self._classes)
        self._n = 0
        self._class_counts = [0] * k
        self._gauss = [[[0, 0.0, 0.0] for _ in range(k)]
                       if not a.is_nominal else None for a in self._features]
        self._tables = [[[0] * len(a.values) for _ in range(k)]
                        if a.is_nominal else None for a in self._features]

    def update(self, features, label):
        c = self._classes.index(label)
        self._n += 1
        self._class_counts[c] += 1
        for f, value in enumerate(features):
            if self._gauss[f] is not None:
                acc = self._gauss[f][c]
                acc[0] += 1
                delta = value - acc[1]
                acc[1] += delta / acc[0]
                acc[2] += delta * (value - acc[1])
            else:
                self._tables[f][c][value] += 1

    def scores(self, features) -> list:
        """Each class's log score for features, in schema order; None for
        a class never trained once any class is (predict passes over it)."""
        k = len(self._classes)
        scores = []
        for c in range(k):
            if self._class_counts[c] == 0 and self._n > 0:
                scores.append(None)
                continue
            score = math.log((self._class_counts[c] + 1) / (self._n + k))
            for f, value in enumerate(features):
                if self._gauss[f] is not None:
                    count, mean, m2 = self._gauss[f][c]
                    if count == 0:
                        continue
                    var = max(m2 / count, self.VARIANCE_FLOOR)
                    score -= 0.5 * (math.log(2.0 * math.pi * var)
                                    + (value - mean) ** 2 / var)
                else:
                    table = self._tables[f][c]
                    score += math.log((table[value] + 1)
                                      / (sum(table) + len(table)))
            scores.append(score)
        return scores

    def predict(self, features):
        """The first class with the greatest score; ties go to the
        earlier class."""
        best_c, best_score = 0, None
        for c, score in enumerate(self.scores(features)):
            if score is not None and (best_score is None
                                      or score > best_score):
                best_c, best_score = c, score
        return self._classes[best_c]


# ------------------------------------------------------------ label statistics

def oracle_label_distribution(labels) -> LabelDistribution:
    if len(labels) == 0:
        raise EmptyStream("cannot compute a distribution of zero labels")
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return LabelDistribution(counts, len(labels))


def oracle_independence_bar(dist: LabelDistribution) -> float:
    return math.fsum(f * f for f in dist.frequencies.values())


def oracle_persistence_accuracy(labels, cold_start=FIRST_LABEL) -> float:
    if len(labels) == 0:
        raise EmptyStream("an empty stream has no first instance")
    first = labels[0] if cold_start == FIRST_LABEL else cold_start
    correct = int(first == labels[0])
    n = len(labels)
    correct += sum(labels[t] == labels[t - 1] for t in range(1, n))
    return correct / n


def oracle_autocorrelation(labels, max_lag) -> AcfSeries:
    """The ACF pooled over the one-hot series of every class, from its
    definition, exactly: per class c, with b_t = 1 when label t is c, S_c
    the count of c and d_t = n b_t - S_c, r(k) = sum_c sum_t d_t d_{t+k} /
    sum_c sum_t d_t^2 in Python ints, one correctly rounded division per
    lag."""
    n = len(labels)
    classes = list(dict.fromkeys(labels))
    if len(classes) < 2:
        raise ZeroVariance("only one class occurs; ACF undefined")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= n:
        raise LagTooLarge(f"max_lag {max_lag} >= stream length {n}")

    covs = [0] * max_lag
    var = 0
    for c in classes:
        b = [int(lab == c) for lab in labels]
        s = sum(b)
        d = [n * x - s for x in b]
        var += sum(x * x for x in d)
        for k in range(1, max_lag + 1):
            covs[k - 1] += sum(map(operator.mul, d[:-k], d[k:]))
    return AcfSeries(tuple(range(1, max_lag + 1)),
                     tuple(cov / var for cov in covs))


def oracle_run_lengths(labels) -> tuple:
    """(count, mean, max) of the maximal constant-label runs."""
    if len(labels) == 0:
        raise EmptyStream("run lengths of an empty stream")
    lengths = [sum(1 for _ in grp) for _, grp in groupby(labels)]
    return len(lengths), len(labels) / len(lengths), max(lengths)


def oracle_majority_accuracy(labels, cold_start=FIRST_LABEL) -> float:
    """Prequential accuracy of MajorityLearner, one label at a time."""
    learner = MajorityLearner(labels[0] if cold_start == FIRST_LABEL
                              else cold_start)
    correct = 0
    for label in labels:
        correct += learner.predict(()) == label
        learner.update((), label)
    return correct / len(labels)


def oracle_diagnose_json(labels, max_lag=96, cold_start=FIRST_LABEL) -> str:
    """DiagnosticsReport.to_json() of diagnose(labels, max_lag, cold_start)."""
    dist = oracle_label_distribution(labels)
    count, mean, longest = oracle_run_lengths(labels)
    doc = {
        "n": dist.n,
        "class_priors": dist.frequencies,
        "independence_bar": oracle_independence_bar(dist),
        "persistence_bar": oracle_persistence_accuracy(labels, cold_start),
        "run_lengths": {"count": count, "mean": mean, "max": longest},
        "acf": None,
    }
    try:
        doc["acf"] = list(oracle_autocorrelation(labels, max_lag).values)
    except (ZeroVariance, LagTooLarge) as exc:
        doc["acf_note"] = str(exc)
    return json.dumps(doc, indent=2)


def oracle_audit(subject_accuracy, labels,
                 cold_start=FIRST_LABEL) -> AuditVerdict:
    return AuditVerdict(
        subject_accuracy=subject_accuracy,
        persistence_bar=oracle_persistence_accuracy(labels, cold_start),
        independence_bar=oracle_independence_bar(
            oracle_label_distribution(labels)),
        majority_bar=oracle_majority_accuracy(labels, cold_start),
    )
