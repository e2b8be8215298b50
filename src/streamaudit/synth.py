"""Synthetic binary label streams with controllable prior and
autocorrelation.

The generator is a two-state Markov chain parameterized by its stationary
prior p = P(class 1) and its lag-1 autocorrelation target a. The stay
probabilities solve the stationarity and autocorrelation constraints:

    P(1 -> 1) = 1 - (1 - a)(1 - p)
    P(0 -> 0) = 1 - (1 - a) p

With a = 0 the next label is class 1 with probability p regardless of the
current state, i.e. the iid null model. Combinations that push either
stay probability outside [0, 1] are rejected at construction.

Randomness comes from the SplitMix64 stream in streamaudit.rng, so a
given (model, seed) reproduces the identical sequence everywhere.
"""

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from . import stream_io
from .errors import EmptyStream, InvalidModel
from .rng import bernoullis, uniforms

LABEL_VALUES = ("0", "1")  # nominal class names used in exported files


def _check_draws(n, seed):
    """Both generators' rule for n, the label count, and the seed."""
    if not isinstance(n, Integral):
        raise InvalidModel("n must be an integer")
    if n < 1:
        raise InvalidModel("n must be >= 1")
    if not isinstance(seed, Integral):
        raise InvalidModel("seed must be an integer")


@dataclass(frozen=True)
class MarkovLabelModel:
    """Two-state chain: stationary prior of class 1 and lag-1 autocorrelation."""

    prior: float
    acf1: float
    n: int
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.prior < 1.0:
            raise InvalidModel(f"prior must be in (0, 1), got {self.prior}")
        _check_draws(self.n, self.seed)
        stay1, stay0 = self.stay_probabilities()
        for name, q in (("P(1->1)", stay1), ("P(0->0)", stay0)):
            if not 0.0 <= q <= 1.0:
                raise InvalidModel(
                    f"infeasible (prior={self.prior}, acf1={self.acf1}): "
                    f"{name} = {q:.4f} outside [0, 1]")

    def stay_probabilities(self):
        p, a = self.prior, self.acf1
        return 1.0 - (1.0 - a) * (1.0 - p), 1.0 - (1.0 - a) * p


def gen_markov_labels(model: MarkovLabelModel) -> list:
    """Generate n labels (ints 0/1): first from the stationary prior, the
    rest by the chain. Deterministic given the model's seed."""
    u = uniforms(model.seed, model.n)
    stay1, stay0 = model.stay_probabilities()
    labels = [1 if u[0] < model.prior else 0]
    prev = labels[0]
    for t in range(1, model.n):
        stay = stay1 if prev else stay0
        prev = prev if u[t] < stay else 1 - prev
        labels.append(prev)
    return labels


def gen_iid_labels(p: float, n: int, seed: int = 42) -> list:
    """n independent Bernoulli(p) draws as ints 0/1, deterministic per seed."""
    if not 0.0 <= p <= 1.0:
        raise InvalidModel(f"p must be in [0, 1], got {p}")
    _check_draws(n, seed)
    return bernoullis(seed, n, p).astype(int).tolist()


def labels_to_csv(labels: Sequence[int], seed=None) -> str:
    """Single-column CSV with a 'label' header, re-ingestible by parse_csv.
    It refuses what labels_to_arff refuses, and zero labels, since
    parse_csv refuses a CSV with no data row."""
    labels = labels_to_dataset(labels).labels()
    if not labels:
        raise EmptyStream()
    return stream_io.write_csv(
        ("label",), zip(labels),
        comment=None if seed is None else f"seed={seed}")


def labels_to_dataset(labels: Sequence[int]) -> stream_io.StreamDataset:
    """Wrap a 0/1 label sequence in a StreamDataset with one constant
    feature. A class-only dataset would round-trip as well; the 'bias'
    column keeps the ARFF that synth has always written byte for byte."""
    schema = (
        stream_io.AttributeSchema("bias", None),
        stream_io.AttributeSchema("label", LABEL_VALUES),
    )
    try:  # 1.0, True and numpy values equal to 0 or 1 hash as 0 and 1
        codes = np.fromiter(map({0: 0, 1: 1}.__getitem__, labels), np.int32,
                            len(labels))
    except (KeyError, TypeError):  # any other value, or an unhashable one
        raise ValueError("labels must be the integers 0 and 1") from None
    return stream_io.StreamDataset._from_columns(
        schema, [np.ones(len(codes)), codes])


def labels_to_arff(labels: Sequence[int]) -> str:
    """Minimal ARFF rendering of a label stream, re-ingestible by parse_arff."""
    return stream_io.to_arff(labels_to_dataset(labels), relation="synthetic")
