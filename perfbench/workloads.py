"""The three benchmark workloads: input building, one pass, output checks.

Each pass is a closed loop with one caller: every call starts after the
previous one returned, and at most one CLI child runs at a time.

* elec-audit: grade an accuracy on an Electricity-shaped ARFF, in process.
  Parsing, naive Bayes and the ACF do the work; the rho sweep does none.
* rho-sweep: the paper's figure, rho 0:1:0.1 with 10 repetitions, on the
  same labels read from a label-only CSV. Baselines and the RNG do nearly
  all the work; parsing is negligible.
* cli-multiclass: short `streamaudit` subprocesses on a 3-class CSV and on
  an ARFF the CLI writes itself. Interpreter start, CSV type inference, the
  k-class restart path and the writers do the work.

An operation is one output check or one CLI call; a pass that raises counts
as one failed operation.
"""

import csv
import io
import json
import os
import subprocess
import sys

from streamaudit import baselines, diagnostics, evaluation, stream_io, synth

import inputs

ELEC_MAX_LAG = 96
SWEEP_GRID = tuple(round(i * 0.1, 12) for i in range(11))
SWEEP_REPS = 10
CLI_ACCURACY = "0.886"  # a reported Electricity accuracy, as the paper audits
CLI_TIMEOUT_S = 120
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_cli.py")


class Checks:
    """Operation and failure counts plus the digest of every output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.recorded = {}
        self.nonzero_exits = 0

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def output(self, name, text):
        """Record an output's sha256; a change between passes is a failure,
        a change between commits only shows in the results file."""
        digest = inputs.sha256_text(text)
        previous = self.digests.setdefault(name, digest)
        self.check(f"{name} output identical across passes",
                   previous == digest)


def trace_targets():
    """(owner, attribute, span name) for every public call that is timed."""
    return [
        (stream_io, "parse_arff", "stream_io.parse_arff"),
        (stream_io, "parse_csv", "stream_io.parse_csv"),
        (stream_io, "to_arff", "stream_io.to_arff"),
        (stream_io.StreamDataset, "labels", "stream_io.labels"),
        (synth, "gen_markov_labels", "synth.gen_markov_labels"),
        (synth, "labels_to_arff", "synth.labels_to_arff"),
        (synth, "labels_to_csv", "synth.labels_to_csv"),
        (diagnostics, "diagnose", "diagnostics.diagnose"),
        (diagnostics, "autocorrelation", "diagnostics.autocorrelation"),
        (diagnostics, "persistence_accuracy",
         "diagnostics.persistence_accuracy"),
        (evaluation, "prequential_eval",
         lambda args: "evaluation.prequential_eval."
         + args[0].name.split(":")[0]),
        (evaluation, "audit_accuracy", "evaluation.audit_accuracy"),
        (evaluation, "audit_prediction_log",
         "evaluation.audit_prediction_log"),
        (evaluation, "write_prediction_log",
         "evaluation.write_prediction_log"),
        (evaluation, "read_prediction_log", "evaluation.read_prediction_log"),
        (baselines, "rho_sweep", "baselines.rho_sweep"),
        (baselines, "majority_baseline", "baselines.majority_baseline"),
        (baselines.SweepResult, "summary_to_csv", "baselines.summary_to_csv"),
    ]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- set-up

def setup_elec(seed, out_dir):
    labels = inputs.elec_labels(seed)
    text = stream_io.to_arff(inputs.elec_dataset(seed, labels))
    _write(os.path.join(out_dir, "elec.arff"), text)
    return {"elec.arff": inputs.sha256_text(text)}


def setup_rho(seed, out_dir):
    text = synth.labels_to_csv(inputs.elec_labels(seed))
    _write(os.path.join(out_dir, "labels.csv"), text)
    return {"labels.csv": inputs.sha256_text(text)}


def setup_cli(seed, out_dir):
    multi = inputs.multiclass_csv(seed)
    # what `synth markov` must write: the oracle for the CLI's write path
    model = synth.MarkovLabelModel(inputs.ELEC_PRIOR, inputs.ELEC_ACF1,
                                   inputs.N_ROWS, inputs.synth_cli_seed(seed))
    ref = synth.labels_to_arff(synth.gen_markov_labels(model))
    _write(os.path.join(out_dir, "multi.csv"), multi)
    _write(os.path.join(out_dir, "synth_ref.arff"), ref)
    return {"multi.csv": inputs.sha256_text(multi),
            "synth_ref.arff": inputs.sha256_text(ref)}


# ---------------------------------------------------------------- passes

class RecordingNaiveBayes(evaluation.NaiveBayesLearner):
    """Naive Bayes that keeps its predictions for the prediction log."""

    def reset(self):
        super().reset()
        self.predictions = []

    def predict(self, features):
        pred = super().predict(features)
        self.predictions.append(pred)
        return pred


def elec_pass(seed, in_dir, work_dir, checks, tracer):
    ds = stream_io.parse_arff(os.path.join(in_dir, "elec.arff"))
    report = diagnostics.diagnose(ds, max_lag=ELEC_MAX_LAG)
    learner = RecordingNaiveBayes(ds)
    nb = evaluation.prequential_eval(learner, ds)
    checks.check("naive Bayes confusion counts sum to n",
                 sum(nb.confusion.values()) == ds.n_instances == nb.n)
    verdict = evaluation.audit_accuracy(nb.accuracy, ds)
    bars = (verdict.persistence_bar, verdict.independence_bar)
    checks.check("audit bars equal diagnose's",
                 bars == (report.persistence_bar, report.independence_bar))

    labels = ds.labels()
    log_text = evaluation.write_prediction_log(
        list(zip(labels, learner.predictions)))
    log_path = os.path.join(work_dir, "predictions.csv")
    _write(log_path, log_text)
    log = evaluation.read_prediction_log(log_path)
    log_verdict, log_report = evaluation.audit_prediction_log(log, labels)
    checks.check("prediction-log audit agrees with the in-process audit",
                 log_report.correct == nb.correct
                 and log_verdict.majority_bar == verdict.majority_bar
                 and (log_verdict.persistence_bar,
                      log_verdict.independence_bar) == bars)

    arff = stream_io.to_arff(ds)
    checks.check("to_arff -> parse_arff returns the same labels",
                 stream_io.parse_arff(io.StringIO(arff)).labels() == labels)

    checks.recorded["naive_bayes_accuracy"] = nb.accuracy
    checks.recorded["verdict"] = verdict.verdict.value
    checks.output("diagnose.json", report.to_json())
    checks.output("naive-bayes.json", nb.to_json())
    checks.output("audit.json", verdict.to_json(n=ds.n_instances))
    checks.output("predictions.csv", log_text)
    checks.output("to_arff.arff", arff)
    return {"stream_io.rows": ds.n_instances, "evaluation.instances": nb.n}


def rho_pass(seed, in_dir, work_dir, checks, tracer):
    ds = stream_io.parse_csv(os.path.join(in_dir, "labels.csv"))
    labels = ds.labels()
    config = baselines.SweepConfig(SWEEP_GRID, SWEEP_REPS,
                                   inputs.sweep_seed(seed))
    result = baselines.rho_sweep(labels, config)
    summary = result.summary_to_csv()
    majority = baselines.majority_baseline(labels)
    persistence = diagnostics.persistence_accuracy(labels)
    checks.check("sweep has one row per cell",
                 len(result.rows) == len(SWEEP_GRID) * SWEEP_REPS)
    checks.check("sweep cells at rho=0 equal majority_baseline",
                 all(a == majority for a in result.accuracies(0.0)))
    checks.check("sweep cells at rho=1 equal persistence_accuracy",
                 all(a == persistence for a in result.accuracies(1.0)))
    checks.output("sweep_summary.csv", summary)
    return {"stream_io.rows": ds.n_instances,
            "baselines.cells": len(result.rows)}


def _arff_labels(text):
    """Class column of a dense ARFF whose class is the last attribute."""
    lines = iter(text.splitlines())
    for line in lines:
        if line.strip().lower().startswith("@data"):
            break
    return [line.rsplit(",", 1)[-1].strip() for line in lines
            if line.strip() and not line.startswith("%")]


def _csv_rows(text):
    return [row for row in csv.reader(io.StringIO(text))
            if row and not row[0].startswith("#")]


def _json(text, checks, what):
    try:
        return json.loads(text)
    except ValueError:
        checks.fail(f"{what} printed no parseable JSON")
        return None


def cli_calls(seed, in_dir, work_dir):
    """(span name, argv) of one cli-multiclass pass, in order."""
    multi = os.path.join(in_dir, "multi.csv")
    synth_out = os.path.join(work_dir, "synth.arff")
    seed_arg = str(inputs.sweep_seed(seed))
    return [
        ("cli.synth", ["synth", "markov", "--n", str(inputs.N_ROWS),
                       "--prior", str(inputs.ELEC_PRIOR),
                       "--acf1", str(inputs.ELEC_ACF1),
                       "--seed", str(inputs.synth_cli_seed(seed)),
                       "--out", synth_out]),
        ("cli.acf", ["acf", "--input", synth_out,
                     "--max-lag", str(ELEC_MAX_LAG)]),
        ("cli.summary", ["summary", "--input", multi]),
        ("cli.audit", ["audit", "--input", multi,
                       "--accuracy", CLI_ACCURACY]),
        ("cli.eval", ["eval", "--input", multi, "--learner", "restart:0.5",
                      "--seed", seed_arg]),
        ("cli.sweep", ["sweep", "--input", multi, "--grid", "0:1:0.5",
                       "--reps", "2", "--seed", seed_arg]),
        # recorded beside the persistence bar, ungated: the CLI starts its
        # learners on the first declared class, the bars on the first label
        ("cli.eval.persistence", ["eval", "--input", synth_out,
                                  "--learner", "persistence"]),
    ]


def cli_pass(seed, in_dir, work_dir, checks, tracer):
    """With a tracer, each CLI child runs under traced_cli.py and its spans
    are adopted under the call's span."""
    out = {}
    spans_path = os.path.join(work_dir, "cli_spans.json")
    for name, argv in cli_calls(seed, in_dir, work_dir):
        if tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "streamaudit.cli"] + argv,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        else:
            with tracer.span(name):
                proc = subprocess.run(
                    [sys.executable, TRACED_CLI, spans_path] + argv,
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                if os.path.exists(spans_path):
                    with open(spans_path, encoding="utf-8") as fh:
                        tracer.adopt(json.load(fh))
                    os.remove(spans_path)
        checks.attempted += 1
        if proc.returncode != 0:
            checks.nonzero_exits += 1
            checks.fail(f"{name} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}")
        out[name] = proc.stdout
    n = inputs.N_ROWS

    with open(os.path.join(work_dir, "synth.arff"), encoding="utf-8") as fh:
        written = fh.read()
    with open(os.path.join(in_dir, "synth_ref.arff"), encoding="utf-8") as fh:
        ref_labels = _arff_labels(fh.read())
    synth_labels = _arff_labels(written)
    checks.check("synth markov writes the labels gen_markov_labels gives",
                 synth_labels == ref_labels)
    checks.output("synth.arff", written)

    acf = _csv_rows(out["cli.acf"])
    checks.check("acf prints lag,acf and one row per lag",
                 acf[:1] == [["lag", "acf"]]
                 and len(acf) == ELEC_MAX_LAG + 1
                 and all(-1.0 <= float(v) <= 1.0 for _, v in acf[1:]))
    checks.output("acf.csv", out["cli.acf"])

    summary = _json(out["cli.summary"], checks, "summary")
    checks.check("summary counts every row of 3 classes",
                 summary is not None and summary["n_instances"] == n
                 and len(summary["class_values"]) == 3
                 and sum(summary["class_counts"].values()) == n)
    checks.output("summary.json", out["cli.summary"])

    audit = _json(out["cli.audit"], checks, "audit")
    checks.check("audit prints bars and a verdict",
                 audit is not None and audit["n"] == n
                 and set(audit["bars"]) == {"majority", "independence",
                                            "persistence"}
                 and audit["verdict"] in ("AbovePersistence",
                                          "BelowPersistence", "BelowMajority"))
    checks.output("audit.json", out["cli.audit"])

    restart = _json(out["cli.eval"], checks, "eval restart")
    checks.check("eval restart confusion counts sum to n",
                 restart is not None and restart["n"] == n
                 and sum(sum(row.values())
                         for row in restart["confusion"].values()) == n)
    checks.output("eval_restart.json", out["cli.eval"])

    sweep = _csv_rows(out["cli.sweep"])
    cells = {}
    for rho, _, acc in sweep[1:]:
        cells.setdefault(float(rho), []).append(float(acc))
    bars = audit["bars"] if audit else {}
    checks.check("sweep prints rho,rep,accuracy for 3x2 cells",
                 sweep[:1] == [["rho", "rep", "accuracy"]]
                 and sorted(cells) == [0.0, 0.5, 1.0]
                 and all(len(v) == 2 for v in cells.values()))
    checks.check("CLI sweep cells at rho=0 equal the audit majority bar",
                 cells.get(0.0) == [bars.get("majority")] * 2)
    checks.check("CLI sweep cells at rho=1 equal the audit persistence bar",
                 cells.get(1.0) == [bars.get("persistence")] * 2)
    checks.output("sweep.csv", out["cli.sweep"])

    persistence = _json(out["cli.eval.persistence"], checks,
                        "eval persistence")
    checks.check("eval persistence reports every row",
                 persistence is not None and persistence["n"] == n)
    checks.output("eval_persistence.json", out["cli.eval.persistence"])
    if persistence is not None and synth_labels:
        same = sum(a == b for a, b in zip(synth_labels, synth_labels[1:]))
        checks.recorded["synth_persistence_bar"] = (1 + same) / len(
            synth_labels)
        checks.recorded["synth_eval_persistence_accuracy"] = \
            persistence["accuracy"]
        checks.recorded["synth_first_label"] = synth_labels[0]
    return {"stream_io.rows": 0}


WORKLOADS = {
    "elec-audit": (setup_elec, elec_pass),
    "rho-sweep": (setup_rho, rho_pass),
    "cli-multiclass": (setup_cli, cli_pass),
}
