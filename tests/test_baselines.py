import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamaudit import (EmptyStream, InvalidRho, RestartPolicy, SweepConfig,
                         gen_markov_labels, majority_baseline,
                         persistence_accuracy, random_restart_run,
                         random_restart_trace, rho_sweep)
from streamaudit.baselines import majority_trace
from streamaudit.rng import SplitMix64, uniforms
from streamaudit.synth import MarkovLabelModel

label_streams = st.lists(st.sampled_from("DU"), min_size=1, max_size=40)
seeds = st.integers(0, 2**64 - 1)


def test_majority_hand_trace():
    assert majority_trace(list("DUUDDD"), cold_start="D") == list("DDUUDD")
    assert majority_baseline(list("DUUDDD"), cold_start="D") == pytest.approx(4 / 6)


def test_majority_constant_stream():
    assert majority_baseline(list("AAAA"), cold_start="A") == 1.0


def test_empty_stream_rejected():
    with pytest.raises(EmptyStream):
        majority_baseline([])
    with pytest.raises(EmptyStream):
        random_restart_run([], RestartPolicy(0.5, 1))


def test_invalid_rho():
    with pytest.raises(InvalidRho):
        RestartPolicy(1.5, 0)
    with pytest.raises(InvalidRho):
        RestartPolicy(-0.1, 0)


def test_restart_rho1_hand_trace():
    trace = random_restart_trace(list("DUU"), RestartPolicy(1.0, 99),
                                 cold_start="D")
    assert trace == ["D", "D", "U"]
    assert random_restart_run(list("DUU"), RestartPolicy(1.0, 99),
                              cold_start="D") == pytest.approx(2 / 3)


@given(label_streams, seeds)
@settings(max_examples=80, deadline=None)
def test_endpoint_identities(labels, seed):
    # exact identities for every stream and every seed
    assert random_restart_run(labels, RestartPolicy(1.0, seed),
                              cold_start="D") == \
        persistence_accuracy(labels, cold_start="D")
    assert random_restart_run(labels, RestartPolicy(0.0, seed),
                              cold_start="D") == \
        majority_baseline(labels, cold_start="D")


@given(label_streams, seeds, st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_restart_determinism(labels, seed, rho):
    policy = RestartPolicy(rho, seed)
    assert random_restart_run(labels, policy, cold_start="D") == \
        random_restart_run(labels, policy, cold_start="D")


def test_sweep_deterministic_rows_at_rho0():
    result = rho_sweep(list("DUDUDDU") * 10,
                       SweepConfig((0.0,), repetitions=3, master_seed=1))
    accs = result.accuracies(0.0)
    assert len(accs) == 3 and len(set(accs)) == 1


def test_sweep_rows_and_summary():
    labels = gen_markov_labels(MarkovLabelModel(0.6, 0.8, 3000, seed=5))
    labels = ["UP" if x else "DOWN" for x in labels]
    config = SweepConfig((0.0, 0.5, 1.0), repetitions=4, master_seed=7)
    result = rho_sweep(labels, config)
    assert len(result.rows) == 12
    assert all(0.0 <= acc <= 1.0 for _, _, acc in result.rows)
    summary = result.summary()
    assert [row[0] for row in summary] == [0.0, 0.5, 1.0]
    for rho, mean, lo, hi, sd in summary:
        assert lo <= mean <= hi and sd >= 0
    # autocorrelated stream: persistence end beats majority end
    assert summary[-1][1] > summary[0][1]


def test_sweep_reproducible_and_order_independent():
    labels = list("DUUDDUDUDDDUUD") * 5
    config = SweepConfig((0.2, 0.8), repetitions=3, master_seed=99)
    a = rho_sweep(labels, config)
    b = rho_sweep(labels, config)
    assert a.rows == b.rows
    # each cell depends only on its own derived seed, not on sweep order
    from streamaudit.rng import derive_seed
    rho, rep, acc = a.rows[4]  # rho index 1, rep 1
    alone = random_restart_run(labels,
                               RestartPolicy(rho, derive_seed(99, 1, 1)))
    assert acc == alone


def test_sweep_csv_export():
    labels = list("DUDU") * 5
    result = rho_sweep(labels, SweepConfig((0.0, 1.0), 2, master_seed=3))
    lines = result.to_csv().splitlines()
    assert lines[0] == "# master_seed=3"
    assert lines[1] == "rho,rep,accuracy"
    assert len(lines) == 6
    summary_lines = result.summary_to_csv().splitlines()
    assert summary_lines[1] == "rho,mean,min,max,stddev"
    assert len(summary_lines) == 4


def test_strictly_increasing_grid_required():
    with pytest.raises(ValueError):
        SweepConfig((0.5, 0.5), 2, 1)


def test_trace_rescoring_audit_mode():
    labels = [random.Random(5).choice("DU") for _ in range(200)]
    policy = RestartPolicy(0.3, 77)
    trace = random_restart_trace(labels, policy, cold_start="D")
    rescored = sum(p == y for p, y in zip(trace, labels)) / len(labels)
    assert rescored == random_restart_run(labels, policy, cold_start="D")


# ---------------------------------------------------------------------------
# independent brute-force simulator (used again by acceptance criterion 9)

def oracle_majority_trace(labels, cold_start):
    preds = []
    for t in range(len(labels)):
        seen = labels[:t]
        if not seen:
            preds.append(cold_start)
            continue
        counts = {}
        for lab in seen:
            counts[lab] = counts.get(lab, 0) + 1
        top = max(counts.values())
        tied = [lab for lab, c in counts.items() if c == top]
        # most recently observed among the tied classes
        for lab in reversed(seen):
            if lab in tied:
                preds.append(lab)
                break
    return preds


def oracle_restart_trace(labels, rho, seed, cold_start):
    rng = SplitMix64(seed)
    preds = []
    window = []
    seen = []
    for t, label in enumerate(labels):
        if t == 0:
            preds.append(cold_start)
        elif not window:
            preds.append(seen[-1])
        else:
            counts = {}
            for lab in window:
                counts[lab] = counts.get(lab, 0) + 1
            top = max(counts.values())
            tied = [lab for lab, c in counts.items() if c == top]
            for lab in reversed(seen):
                if lab in tied:
                    preds.append(lab)
                    break
        window.append(label)
        seen.append(label)
        if rho > 0.0 and rng.bernoulli(rho):
            window = [label]
    return preds


def test_fast_paths_match_bruteforce_oracle():
    rng = random.Random(20240317)
    # n = 1 explicitly; cold start "Z" never occurs in the stream
    for n in [1, 1] + [rng.randrange(1, 50) for _ in range(100)]:
        labels = [rng.choice("DUX") for _ in range(n)]
        rho = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        seed = rng.randrange(2**64)
        cold = rng.choice("DZ")
        assert majority_trace(labels, cold_start=cold) == \
            oracle_majority_trace(labels, cold)
        assert random_restart_trace(labels, RestartPolicy(rho, seed),
                                    cold_start=cold) == \
            oracle_restart_trace(labels, rho, seed, cold)


# ---------------------------------------------------------------------------
# byte-identity gate: sha256 of the sweep CSVs, computed with the per-instance
# Python restart loop that preceded the vectorised kernel

GRID = tuple(round(0.1 * i, 10) for i in range(11))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sticky_stream(n, classes, stay, seed):
    """Keep the previous label with probability stay, else draw uniformly."""
    u = uniforms(seed, 2 * n).tolist()
    out = [classes[int(u[1] * len(classes))]]
    for t in range(1, n):
        out.append(out[-1] if u[2 * t] < stay
                   else classes[int(u[2 * t + 1] * len(classes))])
    return out


@pytest.mark.parametrize("make_labels, rows_sha, summary_sha", [
    (lambda: gen_markov_labels(MarkovLabelModel(0.42, 0.7, 45312, seed=42)),
     "3fa34645e2cf8a6e949afa958172cce45df8efe0dd10acb6af5f377a21a38a69",
     "4bc27be0018e2f1eb685e59ec0455d14afdf88f85685dda14f9e3262625e85f1"),
    (lambda: sticky_stream(2000, "ABC", 0.8, 7),
     "fef25046810e1ff8e7a772f36857c0abb0a99c6123b761a6fbf5ea79966fd160",
     "6ba094c19cda1cdef3dd08a545996f7c8a1ec2a555bf137a203be591563bf2b0"),
], ids=["markov-45312", "sticky-3class-2000"])
def test_sweep_csv_golden_sha256(make_labels, rows_sha, summary_sha):
    result = rho_sweep(make_labels(), SweepConfig(GRID, 10, master_seed=42))
    assert _sha256(result.to_csv()) == rows_sha
    assert _sha256(result.summary_to_csv()) == summary_sha
