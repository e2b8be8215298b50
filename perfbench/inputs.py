"""Deterministic benchmark inputs, all derived from one workload seed.

Three streams, each 45,312 rows like the Electricity (NSW) benchmark,
which is not redistributed with the package:

* an Electricity-shaped dataset: a numeric date, a 7-value nominal day,
  six more numeric features and binary UP/DOWN labels from the package's
  two-state Markov generator (prior 0.42, lag-1 autocorrelation 0.7);
* the same labels as a label-only CSV;
* a 3-class CSV whose labels follow a seeded sticky chain (long runs),
  with the same features and the day spelled out so that type inference
  sees a nominal column.

Features come from ``streamaudit.rng.uniforms`` and labels from
``streamaudit.synth``, so a seed gives the same bytes on every platform.
"""

import hashlib
import io

import numpy as np

from streamaudit import rng, stream_io, synth

N_ROWS = 45_312
PERIODS_PER_DAY = 48
ELEC_PRIOR = 0.42
ELEC_ACF1 = 0.7
MULTI_CLASSES = ("low", "mid", "high")
MULTI_STAY = 0.97
DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
NUMERIC_FEATURES = ("date", "period", "nswprice", "nswdemand", "vicprice",
                    "vicdemand", "transfer")

# Purpose tags folded into the workload seed so that no two streams share
# random draws.
_LABELS, _MULTI, _SWEEP, _SYNTH_CLI = 1, 2, 3, 4
_FEATURE_BASE = 100


def derive(seed, tag):
    return rng.derive_seed(seed, tag)


def label_model(seed):
    """The Markov label model shared by the elec-audit and rho-sweep inputs."""
    return synth.MarkovLabelModel(ELEC_PRIOR, ELEC_ACF1, N_ROWS,
                                  derive(seed, _LABELS))


def sweep_seed(seed):
    return derive(seed, _SWEEP)


def synth_cli_seed(seed):
    return derive(seed, _SYNTH_CLI)


def _features(seed, labels):
    """Seven numeric columns (rounded to 6 places) and a day index column.

    Three columns lean weakly on the label, so naive Bayes learns something
    but, as on the real Electricity data, stays below the persistence bar.
    """
    t = np.arange(N_ROWS)
    y = np.asarray(labels, dtype=np.float64)
    u = [rng.uniforms(derive(seed, _FEATURE_BASE + j), N_ROWS)
         for j in range(len(NUMERIC_FEATURES))]
    cols = {
        "date": t / (N_ROWS - 1),
        "period": (t % PERIODS_PER_DAY) / (PERIODS_PER_DAY - 1),
        "nswprice": 0.03 + 0.04 * u[2] + 0.006 * y,
        "nswdemand": 0.2 + 0.5 * u[3] + 0.03 * y,
        "vicprice": 0.002 + 0.004 * u[4],
        "vicdemand": 0.2 + 0.6 * u[5],
        "transfer": 0.3 + 0.4 * u[6] - 0.03 * y,
    }
    numeric = [np.round(cols[name], 6) for name in NUMERIC_FEATURES]
    day = (t // PERIODS_PER_DAY) % len(DAY_NAMES)
    return numeric, day


def elec_labels(seed):
    """0/1 labels (1 = UP) of the Electricity-shaped stream."""
    return synth.gen_markov_labels(label_model(seed))


def elec_dataset(seed, labels):
    """Electricity-shaped StreamDataset: date, day{1..7}, six numeric
    features, class {UP,DOWN}; label 1 of the Markov chain is UP."""
    numeric, day = _features(seed, labels)
    schema = (
        (stream_io.AttributeSchema("date", None),
         stream_io.AttributeSchema("day", tuple(str(d) for d in range(1, 8))))
        + tuple(stream_io.AttributeSchema(name, None)
                for name in NUMERIC_FEATURES[1:])
        + (stream_io.AttributeSchema("class", ("UP", "DOWN")),))
    rows = zip(numeric[0].tolist(), day.tolist(),
               *(col.tolist() for col in numeric[1:]))
    instances = tuple(
        stream_io.Instance((date, d) + tuple(rest), 0 if y else 1)
        for (date, d, *rest), y in zip(rows, labels))
    return stream_io.StreamDataset(schema, instances, len(schema) - 1)


def multiclass_labels(seed):
    """3-class sticky chain: stay with probability MULTI_STAY, else move to
    one of the two other classes with equal probability."""
    u = rng.uniforms(derive(seed, _MULTI), 2 * N_ROWS)
    stay, pick = u[0::2], u[1::2]
    k = len(MULTI_CLASSES)
    state = int(pick[0] * k)
    out = [state]
    for t in range(1, N_ROWS):
        if stay[t] >= MULTI_STAY:
            state = (state + 1 + int(pick[t] * (k - 1))) % k
        out.append(state)
    return out


def multiclass_csv(seed):
    labels = multiclass_labels(seed)
    numeric, day = _features(seed, [1 if y == 2 else 0 for y in labels])
    out = io.StringIO()
    out.write(",".join(("date", "day") + NUMERIC_FEATURES[1:] + ("class",))
              + "\n")
    rows = zip(numeric[0].tolist(), day.tolist(),
               *(col.tolist() for col in numeric[1:]), labels)
    for date, d, *rest, y in rows:
        out.write(f"{date!r},{DAY_NAMES[d]},"
                  + ",".join(repr(v) for v in rest)
                  + f",{MULTI_CLASSES[y]}\n")
    return out.getvalue()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
