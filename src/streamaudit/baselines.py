"""Naive label-only classifiers: incremental majority, persistence, and
the rho-parameterized random-restart majority, plus the rho sweep and
its exact expectation.

The random-restart classifier keeps label counts over a window since its
last restart, predicts the windowed majority, and after observing each
instance fires a restart with probability rho. A restart clears the
window and re-inserts the just-observed label, so the classifier
"continues training on the most recent data". That reading makes the two
endpoints exact identities rather than approximations:

    rho = 0  ->  incremental majority over the whole history
    rho = 1  ->  persistence (window always holds just the last label)

Every classifier here predicts the first instance as its own label (the
diagnostics' cold start), so its accuracy is (1 + hits) / n and the two
endpoints equal diagnostics' majority and persistence bars to the bit.

None of these classifiers look at features; they exist to show how much
accuracy label autocorrelation alone can buy.
"""

import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral
from operator import add
from typing import Sequence

import numpy as np

from .diagnostics import _encode
from .errors import InvalidRho
from .rng import bernoullis, derive_seed
from .stream_io import write_csv

# exact_rho_curve's longest window is the least Lmax with
# (1 - rho_min)^Lmax <= this
EXACT_CURVE_EPSILON = 1e-12


@dataclass(frozen=True)
class RestartPolicy:
    """Per-instance restart probability and the seed driving the draws."""

    rho: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidRho(f"rho must be in [0, 1], got {self.rho}")
        object.__setattr__(self, "rho", float(self.rho) + 0.0)  # -0.0 is 0.0


@dataclass(frozen=True)
class SweepConfig:
    rho_grid: tuple
    repetitions: int = 10
    master_seed: int = 42

    def __post_init__(self):
        grid = tuple(self.rho_grid)
        if any(not 0.0 <= r <= 1.0 for r in grid):
            raise InvalidRho("grid values must lie in [0, 1]")
        grid = tuple(RestartPolicy(r).rho for r in grid)  # floats, no -0.0
        object.__setattr__(self, "rho_grid", grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("rho grid must be strictly increasing")
        if not isinstance(self.repetitions, Integral):
            raise ValueError("repetitions must be an integer")
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
        """Per-rho (rho, mean, min, max, stddev), in grid order; one pass."""
        groups = {rho: [] for rho in self.config.rho_grid}
        for rho, _, acc in self.rows:  # rows off the grid are dropped
            groups.get(rho, []).append(acc)
        out = []
        for rho, accs in groups.items():
            if not accs:
                raise ValueError(f"no rows for rho {rho!r} of the grid")
            # left folds: sum() of floats is compensated from Python 3.12;
            # the clamp gives equal accuracies' mean back as their value
            lo, hi = min(accs), max(accs)
            mean = min(max(reduce(add, accs) / len(accs), lo), hi)
            var = reduce(add, [(a - mean) ** 2 for a in accs]) / len(accs)
            out.append((rho, mean, lo, hi, math.sqrt(var)))
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
    diagnostics' encoding) plus the one key table the restart kernel
    reads, built once per stream and shared by every sweep cell.

    A key is count << s | last-seen index, s = n.bit_length(), so its
    maximum is the lexicographic one; it fits in 63 bits, as n < 2**31.
    keys[c, t] is class c's count in labels[0:t] << s | the last index
    before t that holds c, or 0: a class with no label in the window has
    count 0 and never wins. As every index is below 2**s, keys[c, t] &
    ~low is the count alone, so one (k, n) table, 8·k·n bytes, serves
    both ends of a window.
    """

    def __init__(self, labels: Sequence):
        self.codes, self.classes = _encode(labels)
        n, k = len(self.codes), len(self.classes)
        self.low = (1 << n.bit_length()) - 1
        seen = self.codes[:-1] == np.arange(k, dtype=np.int32)[:, None]
        self.keys = np.zeros((k, n), np.int64)
        np.cumsum(seen, axis=1, dtype=np.int64, out=self.keys[:, 1:])
        self.keys <<= n.bit_length()
        index = np.arange(n - 1, dtype=np.int32)
        for keys, hit in zip(self.keys[:, 1:], seen):  # one row at a time
            last = np.where(hit, index, 0)
            keys += np.maximum.accumulate(last, out=last)

    def starts(self, policy: RestartPolicy):
        """The window starts of one seeded run (None: no restarts; 1: the
        last label alone). The draw after instance j fires a restart with
        probability rho; the window for t starts at the latest j < t that
        fired (the just-seen label is re-inserted), or at 0."""
        if policy.rho == 0.0:
            return None
        if policy.rho == 1.0:
            return 1
        start = np.arange(len(self.codes) - 1, dtype=np.intp)  # take's type
        start *= bernoullis(policy.seed, len(start), policy.rho)
        np.maximum.accumulate(start, out=start)
        return start

    def predict(self, start=None) -> np.ndarray:
        """The restart kernel: predicted codes for t = 1..n-1, where the
        window for t is labels[start[t - 1]:t], labels[max(0, t - start):t]
        for an int start in [1, n] (the last start labels) or labels[0:t]
        for None. A pass holds at most two int64 scratch rows besides start.

        The windowed majority, ties to the tied class seen most recently,
        is the class at the largest key's last-seen index: the window is
        never empty, so a class tied at the top count was last seen at or
        after its start, and no two classes share a last-seen index.
        """
        best = key = None
        for keys in self.keys:
            top = keys[1:]
            if start is not None:
                if key is None:
                    key = np.empty_like(top)
                if isinstance(start, int):  # shifted slices of the table
                    key[:start - 1] = 0
                    np.bitwise_and(keys[:len(keys) - start], ~self.low,
                                   out=key[start - 1:])
                else:
                    keys.take(start, out=key, mode="clip")
                    key &= ~self.low  # the count before the window
                top = np.subtract(top, key, out=key)
            if best is None:  # the first class's keys, in a buffer of its own
                best, key = (top.copy() if start is None else top), None
            else:
                np.maximum(best, top, out=best)
        del key, top  # free the scratch row before the gather
        best &= self.low
        return self.codes.take(best)

    def hits(self, start=None) -> int:
        return int(np.count_nonzero(self.predict(start) == self.codes[1:]))

    def accuracy(self, start=None) -> float:
        return (1 + self.hits(start)) / len(self.codes)

    def window_hits(self, l_max: int) -> list:
        """H_L for L = 1..l_max: the hits when the window for t holds the
        last L labels."""
        return [self.hits(length) for length in range(1, l_max + 1)]

    def trace(self, start=None) -> np.ndarray:
        # instance 0 predicts itself
        return np.concatenate((self.codes[:1], self.predict(start)))


def majority_baseline(labels: Sequence) -> float:
    """Prequential incremental-majority accuracy: at each step predict the
    majority class of everything seen so far, ties toward the most
    recently observed label."""
    return _CodedStream(labels).accuracy()


def random_restart_run(labels: Sequence, policy: RestartPolicy) -> float:
    """Accuracy of one seeded run of the random-restart classifier."""
    stream = _CodedStream(labels)
    return stream.accuracy(stream.starts(policy))


def random_restart_trace(labels: Sequence, policy: RestartPolicy) -> list:
    """Full prediction trace of one seeded run (audit mode)."""
    stream = _CodedStream(labels)
    return list(map(stream.classes.__getitem__,
                    stream.trace(stream.starts(policy)).tolist()))


def rho_sweep(labels: Sequence, config: SweepConfig) -> SweepResult:
    """Run the restart classifier over the whole (rho, repetition) grid.

    Each cell gets an independent seed derived from (master_seed, rho
    index, repetition index), so the sweep is reproducible and cells are
    order-independent. rho = 0 and rho = 1 draw nothing, so their first
    run's accuracy serves every repetition.
    """
    stream = _CodedStream(labels)
    rows = []
    for i, rho in enumerate(config.rho_grid):
        for rep in range(config.repetitions):
            if rep == 0 or 0.0 < rho < 1.0:
                seed = derive_seed(config.master_seed, i, rep)
                acc = stream.accuracy(stream.starts(RestartPolicy(rho, seed)))
            rows.append((rho, rep, acc))
    return SweepResult(tuple(rows), config)


def exact_rho_curve(labels: Sequence, rho_grid: Sequence) -> list:
    """The restart classifier's expected accuracy E(rho) for each grid
    value, as (rho, E, omitted mass) rows in grid order, from one profile
    of the hits H_L of windows of the last L labels, L = 1..Lmax.

    For t >= 1 the window has length L < t with probability
    rho (1 - rho)^(L - 1) and is the whole history with probability
    (1 - rho)^(t - 1), so

        n E(rho) = 1 + rho sum_{L < Lmax} (1 - rho)^(L - 1) H_L
                     + (1 - rho)^(Lmax - 1) H_Lmax,

    by Horner's rule in floats, longest window first. Lmax =
    ceil(ln eps / ln(1 - rho_min)) over the smallest nonzero rho, at most
    n - 1, where the sum is exact; below that, E is within the omitted
    mass (1 - rho)^(Lmax - 1) of the truth; Lmax = n - 1 where 1 - rho_min
    rounds to 1. rho = 0 and rho = 1 are the majority and persistence bars.
    The grid is refused as SweepConfig refuses it.
    """
    rho_grid = SweepConfig(rho_grid).rho_grid
    stream = _CodedStream(labels)
    n = len(stream.codes)
    inner = [rho for rho in rho_grid if 0.0 < rho < 1.0]
    l_max = 1
    if inner:
        log_stay = math.log(1.0 - min(inner))
        l_max = max(1, min(n - 1, math.ceil(
            math.log(EXACT_CURVE_EPSILON) / log_stay) if log_stay else n - 1))
    hits = stream.window_hits(l_max)
    rows = []
    for rho in rho_grid:
        if rho == 0.0:
            rows.append((rho, stream.accuracy(), 0.0))
            continue
        total = float(hits[-1])
        for h in reversed(hits[:-1]):
            total = rho * h + (1.0 - rho) * total
        exact = l_max >= n - 1 or rho == 1.0
        rows.append((rho, (1.0 + total) / n,
                     0.0 if exact else (1.0 - rho) ** (l_max - 1)))
    return rows
