"""Naive label-only classifiers: incremental majority, persistence, and
the rho-parameterized random-restart majority, plus the rho sweep.

The random-restart classifier keeps label counts over a window since its
last restart, predicts the windowed majority, and after observing each
instance fires a restart with probability rho. A restart clears the
window and re-inserts the just-observed label, so the classifier
"continues training on the most recent data". That reading makes the two
endpoints exact identities rather than approximations:

    rho = 0  ->  incremental majority over the whole history
    rho = 1  ->  persistence (window always holds just the last label)

None of these classifiers look at features; they exist to show how much
accuracy label autocorrelation alone can buy.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import FIRST_LABEL, _encode, first_prediction
from .errors import InvalidRho
from .rng import derive_seed, uniforms
from .stream_io import write_csv


@dataclass(frozen=True)
class RestartPolicy:
    """Per-instance restart probability and the seed driving the draws."""

    rho: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidRho(f"rho must be in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class SweepConfig:
    rho_grid: tuple
    repetitions: int = 10
    master_seed: int = 42

    def __post_init__(self):
        grid = tuple(self.rho_grid)
        object.__setattr__(self, "rho_grid", grid)
        if any(not 0.0 <= r <= 1.0 for r in grid):
            raise InvalidRho("grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("rho grid must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    """All (rho, repetition, accuracy) rows plus per-rho summaries."""

    rows: tuple  # (rho, rep index, accuracy)
    config: SweepConfig

    def accuracies(self, rho: float) -> list:
        return [acc for r, _, acc in self.rows if r == rho]

    def summary(self) -> list:
        """Per-rho (rho, mean, min, max, stddev), in grid order."""
        out = []
        for rho in self.config.rho_grid:
            accs = self.accuracies(rho)
            mean = sum(accs) / len(accs)
            var = sum((a - mean) ** 2 for a in accs) / len(accs)
            out.append((rho, mean, min(accs), max(accs), math.sqrt(var)))
        return out

    def to_csv(self) -> str:
        return write_csv(("rho", "rep", "accuracy"), self.rows,
                         comment=f"master_seed={self.config.master_seed}")

    def summary_to_csv(self) -> str:
        return write_csv(("rho", "mean", "min", "max", "stddev"),
                         self.summary(),
                         comment=f"master_seed={self.config.master_seed}")


class _CodedStream:
    """A label stream as int32 codes in first-occurrence order (the
    diagnostics' encoding) plus the prefix tables the restart kernel
    reads, built once per stream and shared by every sweep cell.

    prefix[c, t] counts class c in labels[0:t]; last[c, t - 1] is the last
    index before t that holds class c, or -1.
    """

    def __init__(self, labels: Sequence, cold_start):
        self.codes, self.classes = _encode(labels)
        # classes[0] is the first label
        self.first = first_prediction(self.classes, cold_start)
        n, k = len(self.codes), len(self.classes)
        seen = self.codes[:-1] == np.arange(k, dtype=np.int32)[:, None]
        self.prefix = np.zeros((k, n), np.int32)
        np.cumsum(seen, axis=1, dtype=np.int32, out=self.prefix[:, 1:])
        last = np.where(seen, np.arange(n - 1, dtype=np.int32), np.int32(-1))
        self.last = np.maximum.accumulate(last, axis=1, out=last)

    def predict(self, policy: RestartPolicy) -> np.ndarray:
        """The restart kernel: predicted codes for t = 1..n-1 of one run.

        The draw after instance j fires a restart with probability rho;
        the window for t then starts at the latest j < t that fired (the
        just-seen label is re-inserted), or at 0. The prediction is the
        windowed majority, ties to the tied class seen most recently.

        One pass per class keeps the running lexicographic maximum of
        (window count, last-seen index), and the prediction is the class
        at the winner's last-seen index. That is the rule above: the
        window is never empty, so a class tied at the maximum count holds
        a label in it and was last seen at or after its start, and no two
        classes share a last-seen index.
        """
        start = None
        if policy.rho > 0.0:
            m = len(self.codes) - 1
            start = np.arange(m, dtype=np.int32)
            start *= uniforms(policy.seed, m) < policy.rho
            np.maximum.accumulate(start, out=start)
        best_count = best_last = None
        for prefix, last in zip(self.prefix, self.last):
            count = prefix[1:] if start is None \
                else prefix[1:] - prefix.take(start)
            if best_count is None:
                best_count, best_last = count, last
                continue
            better = (count > best_count) | \
                ((count == best_count) & (last > best_last))
            best_count = np.maximum(best_count, count)
            best_last = np.where(better, last, best_last)
        return self.codes.take(best_last)

    def accuracy(self, policy: RestartPolicy) -> float:
        hits = np.count_nonzero(self.predict(policy) == self.codes[1:])
        correct = int(self.first == self.classes[0]) + int(hits)
        return correct / len(self.codes)

    def trace(self, policy: RestartPolicy) -> list:
        codes = self.predict(policy).tolist()
        return [self.first, *map(self.classes.__getitem__, codes)]


def majority_baseline(labels: Sequence, cold_start=FIRST_LABEL) -> float:
    """Prequential incremental-majority accuracy: at each step predict the
    majority class of everything seen so far, ties toward the most
    recently observed label."""
    return random_restart_run(labels, RestartPolicy(0.0),
                              cold_start=cold_start)


def majority_trace(labels: Sequence, cold_start=FIRST_LABEL) -> list:
    return random_restart_trace(labels, RestartPolicy(0.0),
                                cold_start=cold_start)


def random_restart_run(labels: Sequence, policy: RestartPolicy,
                       cold_start=FIRST_LABEL) -> float:
    """Accuracy of one seeded run of the random-restart classifier."""
    return _CodedStream(labels, cold_start).accuracy(policy)


def random_restart_trace(labels: Sequence, policy: RestartPolicy,
                         cold_start=FIRST_LABEL) -> list:
    """Full prediction trace of one seeded run (audit mode)."""
    return _CodedStream(labels, cold_start).trace(policy)


def rho_sweep(labels: Sequence, config: SweepConfig,
              cold_start=FIRST_LABEL) -> SweepResult:
    """Run the restart classifier over the whole (rho, repetition) grid.

    Each cell gets an independent seed derived from (master_seed, rho
    index, repetition index), so the sweep is reproducible and cells are
    order-independent.
    """
    stream = _CodedStream(labels, cold_start)
    rows = []
    for i, rho in enumerate(config.rho_grid):
        for rep in range(config.repetitions):
            policy = RestartPolicy(rho, derive_seed(config.master_seed, i, rep))
            rows.append((rho, rep, stream.accuracy(policy)))
    return SweepResult(tuple(rows), config)
