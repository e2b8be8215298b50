import csv
import hashlib
import io
import json
import re

import pytest
from conftest import REPO_ROOT, run
from oracles import OracleNaiveBayes, oracle_autocorrelation
from test_baselines import sticky_stream
from test_stream_io import multiclass_csv

from streamaudit import (EmptyStream, NaiveBayesLearner, RestartPolicy,
                         SchemaMismatch, SweepConfig, audit_accuracy,
                         audit_prediction_log, autocorrelation,
                         dataset_summary, diagnose, label_distribution,
                         labels_to_csv, majority_baseline, parse_arff,
                         parse_csv, persistence_accuracy, prequential_eval,
                         random_restart_run, random_restart_trace,
                         rho_sweep, run_lengths, write_prediction_log)
from streamaudit.cli import MAX_GRID_VALUES, _parse_grid, main
from streamaudit.stream_io import write_csv


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "markov.csv"
    code = main(["synth", "markov", "--n", "3000", "--prior", "0.42",
                 "--acf1", "0.8", "--seed", "7", "--out", str(path)])
    assert code == 0
    return path


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, ["sweep", "--input", "x.csv", "--grid", "oops"])
    assert code == 1


@pytest.mark.parametrize("grid, message", [
    ("0:1:0", "need STEP > 0 and HI >= LO"),
    ("1:0:0.1", "need STEP > 0 and HI >= LO"),
    ("0:2:0.5", "grid values must lie in [0, 1]"),
    # bounds are checked before the grid is counted
    ("0:inf:1", "grid values must lie in [0, 1]"),
    ("0:1e400:1", "grid values must lie in [0, 1]"),
    ("-inf:0:1", "grid values must lie in [0, 1]"),
    ("0:nan:0.5", "grid values must lie in [0, 1]"),
    # the values are counted before the grid is built
    ("0:1:1e-6", "grid has more than 10001 values"),
    ("0:1:0.00009999", "grid has more than 10001 values"),
    ("0:1:1e-320", "grid has more than 10001 values"),
    # the values repeat when rounded to 12 decimals
    ("0:1e-10:1e-14", "rho grid must be strictly increasing"),
    # (HI - LO) / STEP is within 1e-9 of 1, so HI is LO + STEP, past 1
    ("0:1:1.0000000005", "grid values must lie in [0, 1]"),
])
def test_bad_sweep_grid_exit_1(synth_csv, capsys, grid, message):
    code, out, err = run(capsys, ["sweep", "--input", str(synth_csv),
                                  f"--grid={grid}"])
    assert code == 1 and out == ""
    assert err == f"usage error: argument --grid: {message}\n"


def test_grid_of_one_value():
    assert _parse_grid("0.5:0.5:0.1") == (0.5,)


def test_grid_of_the_most_values_allowed():
    grid = _parse_grid("0:1:0.0001")
    assert len(grid) == MAX_GRID_VALUES == 10001
    assert (grid[0], grid[1], grid[-1]) == (0.0, 0.0001, 1.0)


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "0:1:0.5", "--reps", "0"],
    ["sweep", "--grid", "0:1:0.5", "--reps", "-1"],
    ["sweep", "--grid", "0:1:0.5", "--reps", "2.5"],
    ["acf", "--max-lag", "0"],
    ["acf", "--max-lag", "-3"],
], ids=["reps-0", "reps-negative", "reps-float", "max-lag-0",
        "max-lag-negative"])
@pytest.mark.parametrize("exists", [True, False],
                         ids=["input-exists", "input-missing"])
def test_counts_below_1_usage_error_before_input(synth_csv, capsys, argv,
                                                 exists):
    path = str(synth_csv) if exists else "/nonexistent.csv"
    code, out, err = run(capsys, argv + ["--input", path])
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("model", [["markov", "--acf1", "0.5"], ["iid"]],
                         ids=["markov", "iid"])
def test_synth_n_below_1_usage_error_writes_nothing(tmp_path, capsys, model,
                                                    n):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, ["synth", model[0], "--n", n,
                                     "--prior", "0.5", *model[1:],
                                     "--out", str(out)])
    assert (code, stdout) == (1, "") and not out.exists()
    assert re.fullmatch(r"usage error: [^\n]*\n", err)


@pytest.mark.parametrize("argv, message", [
    (["markov", "--prior", "1.0", "--acf1", "0.5"],
     "prior must be in (0, 1), got 1.0"),
    (["markov", "--prior", "0", "--acf1", "0.5"],
     "prior must be in (0, 1), got 0.0"),
    (["markov", "--prior", "0.1", "--acf1", "-0.9"],
     "infeasible (prior=0.1, acf1=-0.9): P(1->1) = -0.7100 outside [0, 1]"),
    (["iid", "--prior", "1.5"], "p must be in [0, 1], got 1.5"),
], ids=["markov-prior-1", "markov-prior-0", "markov-infeasible-acf1",
        "iid-prior-1.5"])
def test_synth_refused_model_usage_error_writes_nothing(tmp_path, capsys,
                                                        argv, message):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, ["synth", argv[0], "--n", "10", *argv[1:],
                                     "--out", str(out)])
    assert (code, stdout) == (1, "") and not out.exists()
    assert err == f"usage error: {message}\n"


def test_each_parameter_rule_is_stated_once_in_src():
    src = "".join(path.read_text(encoding="utf-8") for path in
                  sorted((REPO_ROOT / "src" / "streamaudit").glob("*.py")))
    for message in ("grid values must lie in [0, 1]",
                    "rho grid must be strictly increasing",
                    "rho must be in [0, 1]", "prior must be in (0, 1)"):
        assert src.count(message) == 1, message


@pytest.mark.parametrize("graded, message", [
    ([], "one of the arguments --accuracy --predictions is required"),
    (["--accuracy", "0.9", "--predictions", "/nonexistent-log.csv"],
     "argument --predictions: not allowed with argument --accuracy"),
], ids=["neither", "both"])
def test_audit_takes_one_of_accuracy_or_predictions_before_input(
        capsys, graded, message):
    code, out, err = run(capsys, ["audit", "--input", "/nonexistent.csv",
                                  *graded])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_unknown_learner_exit_1(synth_csv, capsys):
    code, _, err = run(capsys, ["eval", "--input", str(synth_csv),
                                "--learner", "wizard"])
    assert code == 1 and "wizard" in err


@pytest.mark.parametrize("spec", ["restart:2", "restart:x", "restart:"])
def test_bad_restart_rho_exit_1(synth_csv, capsys, spec):
    code, out, err = run(capsys, ["eval", "--input", str(synth_csv),
                                  "--learner", spec])
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and repr(spec) in err


def test_learner_checked_before_input(capsys):
    code, out, err = run(capsys, ["eval", "--input", "/nonexistent.arff",
                                  "--learner", "restart:2"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "'restart:2'" in err


def test_restart_policy_refusal_names_the_learner_before_input(capsys):
    code, out, err = run(capsys, ["eval", "--input", "/nonexistent.arff",
                                  "--learner", "restart:1.5"])
    assert (code, out) == (1, "")
    assert err == ("usage error: learner 'restart:1.5': "
                   "rho must be in [0, 1], got 1.5\n")


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["summary", "--input", "/nonexistent.arff"])
    assert code == 2


def test_summary_json(synth_csv, capsys):
    code, out, _ = run(capsys, ["summary", "--input", str(synth_csv)])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_instances"] == 3000
    assert sum(doc["class_counts"].values()) == 3000


def test_acf_to_stdout(synth_csv, capsys):
    code, out, _ = run(capsys, ["acf", "--input", str(synth_csv),
                                "--max-lag", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lag,acf"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) > 0.5  # strongly autocorrelated


def test_acf_empty_dataset_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.arff"
    path.write_text("@relation e\n@attribute x numeric\n"
                    "@attribute cls {A,B}\n@data\n")
    code, _, err = run(capsys, ["acf", "--input", str(path), "--max-lag", "10"])
    assert code == 2
    assert err == "error: an empty stream has no first instance\n"


EMPTY_ARFF = ("@relation e\n@attribute x numeric\n@attribute cls {A,B}\n"
              "@data\n")


def prequential_eval_on_empty():
    empty = parse_arff(io.StringIO(EMPTY_ARFF))
    return prequential_eval(NaiveBayesLearner(empty), empty)


@pytest.mark.parametrize("entry", [
    lambda: persistence_accuracy([]),
    lambda: majority_baseline([]),
    lambda: random_restart_run([], RestartPolicy(0.5, 1)),
    lambda: random_restart_trace([], RestartPolicy(0.5, 1)),
    lambda: rho_sweep([], SweepConfig((0.0, 0.5, 1.0), 2)),
    ["eval", "--learner", "majority"],
    ["eval", "--learner", "restart:0.3"],
    ["sweep", "--grid", "0:1:0.5"],
    lambda: label_distribution([]),
    lambda: run_lengths([]),
    lambda: autocorrelation([], 1),
    lambda: diagnose([]),
    lambda: audit_accuracy(0.5, []),
    ["acf", "--max-lag", "10"],
    ["audit", "--accuracy", "0.5"],
    ["summary"],
    ["eval", "--learner", "naive-bayes"],
    ["audit", "--predictions", "log.csv"],
    lambda: parse_csv(io.StringIO("x,cls\n")),
    lambda: dataset_summary(parse_arff(io.StringIO(EMPTY_ARFF))),
    lambda: audit_prediction_log([]),
    lambda: labels_to_csv([]),
    prequential_eval_on_empty,
], ids=["persistence_accuracy", "majority_baseline", "random_restart_run",
        "random_restart_trace", "rho_sweep", "eval-majority",
        "eval-restart", "sweep", "label_distribution", "run_lengths",
        "autocorrelation", "diagnose", "audit_accuracy", "acf",
        "audit-accuracy", "summary", "eval-naive-bayes", "audit-predictions",
        "parse_csv", "dataset_summary", "audit_prediction_log",
        "labels_to_csv", "prequential_eval"])
def test_empty_stream_has_no_first_instance(tmp_path, capsys, entry):
    """One refusal for a stream without rows, from every entry point, and
    on the CLI whatever the input's format."""
    message = "an empty stream has no first instance"
    if callable(entry):
        with pytest.raises(EmptyStream, match=f"^{message}$"):
            entry()
        return
    log = tmp_path / "log.csv"
    log.write_text("true,predicted\n")  # a log without rows
    argv = [str(log) if arg == "log.csv" else arg for arg in entry]
    for name, text in [("empty.arff", EMPTY_ARFF), ("empty.csv", "x,cls\n"),
                       ("comment.csv", "x,cls\n# a comment, no row\n")]:
        path = tmp_path / name
        path.write_text(text)
        assert run(capsys, argv + ["--input", str(path)]) == \
            (2, "", f"error: {message}\n"), name


def test_prequential_refuses_another_schema_before_an_empty_stream():
    empty = parse_arff(io.StringIO("@relation e\n@attribute x numeric\n"
                                   "@attribute cls {A,B}\n@data\n"))
    other = parse_arff(io.StringIO("@relation o\n@attribute x numeric\n"
                                   "@attribute cls {A,C}\n@data\n1,A\n"))
    with pytest.raises(SchemaMismatch, match="bound to a different schema"):
        prequential_eval(NaiveBayesLearner(other), empty)
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        prequential_eval(NaiveBayesLearner(empty), empty)


def test_audit_accuracy_json(synth_csv, capsys):
    code, out, _ = run(capsys, ["audit", "--input", str(synth_csv),
                                "--accuracy", "0.99"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "AbovePersistence"
    assert set(doc["bars"]) == {"majority", "independence", "persistence"}


def test_audit_assert_above_bar_exit_3(synth_csv, capsys):
    code, out, err = run(capsys, ["audit", "--input", str(synth_csv),
                                  "--accuracy", "0.5", "--assert-above-bar"])
    assert code == 3
    assert json.loads(out)["verdict"] != "AbovePersistence"


def test_audit_needs_exactly_one_subject(synth_csv, capsys):
    code, _, _ = run(capsys, ["audit", "--input", str(synth_csv)])
    assert code == 1


def test_audit_prediction_log(synth_csv, tmp_path, capsys):
    ds = parse_csv(str(synth_csv))
    labels = ds.labels()
    log_path = tmp_path / "preds.csv"
    rows = ["true,predicted"] + [f"{lab},{labels[0]}" for lab in labels]
    log_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, ["audit", "--input", str(synth_csv),
                                "--predictions", str(log_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3000
    assert doc["confusion"] is not None


def test_audit_malformed_prediction_log_exit_2(synth_csv, tmp_path, capsys):
    log_path = tmp_path / "preds.csv"
    log_path.write_text("true,predicted\n0,0\n1,1,1\n")
    code, out, err = run(capsys, ["audit", "--input", str(synth_csv),
                                  "--predictions", str(log_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ")


def test_sweep_outputs(synth_csv, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    summary_csv = tmp_path / "summary.csv"
    code, _, err = run(capsys, [
        "sweep", "--input", str(synth_csv), "--grid", "0:1:0.5",
        "--reps", "2", "--seed", "5", "--out", str(out_csv),
        "--summary", str(summary_csv)])
    assert code == 0
    assert "# seed=5" in err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# master_seed=5"
    assert lines[1] == "rho,rep,accuracy"
    assert len(lines) == 8  # 3 rhos x 2 reps
    rows = [line.split(",") for line in lines[2:]]
    assert sorted({r[0] for r in rows}) == ["0.0", "0.5", "1.0"]
    assert summary_csv.read_text().splitlines()[1] == "rho,mean,min,max,stddev"


@pytest.mark.parametrize("summary", ["same.csv", "./same.csv"])
@pytest.mark.parametrize("exists", [True, False],
                         ids=["input-exists", "input-missing"])
def test_sweep_out_and_summary_to_one_file_usage_error_before_input(
        synth_csv, tmp_path, capsys, monkeypatch, summary, exists):
    # the summary would overwrite the per-run rows
    monkeypatch.chdir(tmp_path)
    path = str(synth_csv) if exists else "/nonexistent.csv"
    code, out, err = run(capsys, ["sweep", "--input", path, "--grid",
                                  "0:1:0.5", "--out", "same.csv",
                                  "--summary", summary])
    assert (code, out) == (1, "") and not (tmp_path / "same.csv").exists()
    assert err == "usage error: --out and --summary name the same file\n"


def test_sweep_out_and_summary_both_to_stdout(synth_csv, capsys):
    code, out, _ = run(capsys, ["sweep", "--input", str(synth_csv),
                                "--grid", "0:1:0.5", "--reps", "2",
                                "--out", "-", "--summary", "-"])
    ds = parse_csv(str(synth_csv))
    result = rho_sweep(ds, SweepConfig((0.0, 0.5, 1.0), 2, 42))
    assert code == 0
    assert out == result.to_csv() + result.summary_to_csv()


def test_sweep_grid_endpoint_inclusive(synth_csv, tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, _, _ = run(capsys, ["sweep", "--input", str(synth_csv),
                              "--grid", "0:1:0.25", "--reps", "1",
                              "--out", str(out_csv)])
    assert code == 0
    rhos = [line.split(",")[0] for line in
            out_csv.read_text().splitlines()[2:]]
    assert rhos == ["0.0", "0.25", "0.5", "0.75", "1.0"]


def test_synth_outputs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["synth", "iid", "--n", "500", "--prior", "0.58",
                     "--seed", "11", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "# seed=11"


def test_seeds_are_taken_mod_2_64(synth_csv, tmp_path, capsys):
    for model in (["markov", "--acf1", "0.6"], ["iid"]):
        labels = []
        for seed in ("-1", str(2**64 - 1)):
            path = tmp_path / f"{model[0]}{seed}.csv"
            code, _, err = run(capsys, ["synth", *model, "--n", "500",
                                        "--prior", "0.4", "--seed", seed,
                                        "--out", str(path)])
            assert code == 0 and err == f"# seed={seed}\n"
            labels.append(path.read_text().splitlines()[1:])
        assert labels[0] == labels[1]
    code, out, err = run(capsys, ["eval", "--input", str(synth_csv),
                                  "--learner", "restart:0.3", "--seed", "-1"])
    assert code == 0 and err == "# seed=-1\n"
    assert json.loads(out)["n"] == 3000


def test_synth_arff_output_reingests(tmp_path, capsys):
    path = tmp_path / "labels.arff"
    assert main(["synth", "markov", "--n", "200", "--prior", "0.5",
                 "--acf1", "0.6", "--seed", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["summary", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["n_instances"] == 200


def test_eval_learners(synth_csv, tmp_path, capsys):
    for learner in ("majority", "persistence", "restart:0.5", "naive-bayes"):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, ["eval", "--input", str(synth_csv),
                                  "--learner", learner, "--seed", "3",
                                  "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["n"] == 3000
        assert 0.0 <= doc["accuracy"] <= 1.0


def test_eval_naive_bayes_on_nan_and_huge_values(tmp_path, capsys):
    # nan cells, and values too far apart to square before their class is
    # seen: the learner walks its own stream and scores it as row by row
    path = tmp_path / "edge.csv"
    path.write_text("x,y,cls\n1e308,0.5,A\n-1e308,nan,A\n0.0,1.5,B\n"
                    "1.0,nan,A\n" + "".join(f"{i},{i / 7:.2f},{'AB'[i % 2]}\n"
                                           for i in range(96)))
    code, out, _ = run(capsys, ["eval", "--input", str(path),
                                "--learner", "naive-bayes"])
    assert code == 0
    ds = parse_csv(str(path))
    oracle = prequential_eval(OracleNaiveBayes(ds), ds)
    assert (json.loads(out)["n"], json.loads(out)["correct"]) == \
        (100, oracle.correct)


def _synth_arff(path):
    assert main(["synth", "markov", "--n", "3000", "--prior", "0.42",
                 "--acf1", "0.8", "--seed", "7", "--out", str(path)]) == 0


@pytest.mark.parametrize("name, make", [
    ("markov.arff", _synth_arff),
    ("multi.csv", lambda path: path.write_text(multiclass_csv(n=3000,
                                                              seed=11))),
    ("edge.csv", lambda path: path.write_text(
        "x,y,cls\n1e308,0.5,A\n-1e308,nan,A\n0.0,1.5,B\n1.0,nan,A\n"
        + "".join(f"{i},{i / 7:.2f},{'AB'[i % 2]}\n" for i in range(96)))),
], ids=["synth-arff", "three-class-csv", "nan-and-huge-csv"])
def test_eval_naive_bayes_reports_as_the_library_learner(tmp_path, capsys,
                                                         name, make):
    path = tmp_path / name
    make(path)
    capsys.readouterr()
    code, out, _ = run(capsys, ["eval", "--input", str(path),
                                "--learner", "naive-bayes"])
    ds = (parse_arff if name.endswith(".arff") else parse_csv)(str(path))
    assert code == 0
    assert out == prequential_eval(NaiveBayesLearner(ds), ds).to_json() + "\n"


def test_eval_naive_bayes_on_an_empty_stream_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.arff"
    path.write_text("@relation e\n@attribute x numeric\n"
                    "@attribute cls {A,B}\n@data\n")
    assert run(capsys, ["eval", "--input", str(path), "--learner",
                        "naive-bayes"]) == \
        (2, "", "error: an empty stream has no first instance\n")


@pytest.mark.parametrize("name, text", [
    ("overflow.csv", "x,cls\n1e200,A\n-1e200,B\n0.0,A\n"),
    # class A first overflows at row 3, class B at row 1
    ("overflow.arff", "@relation r\n@attribute x numeric\n"
                      "@attribute cls {A,B}\n@data\n"
                      "0.0,B\n1e200,A\n1e200,A\n0.0,B\n"),
], ids=["csv", "arff"])
def test_eval_naive_bayes_names_the_row_it_cannot_square(tmp_path, capsys,
                                                         name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run(capsys, ["eval", "--input", str(path), "--learner",
                        "naive-bayes"]) == \
        (2, "", "error: row 1: a value is too far from a class mean for "
                "naive Bayes to square\n")


def test_audit_a_log_of_the_wrong_length_exit_2(tmp_path, capsys):
    data, log = tmp_path / "labels.csv", tmp_path / "log.csv"
    data.write_text("label\nA\nB\nB\nA\n")
    log.write_text("true,predicted\nA,A\nB,A\nB,B\n")
    assert run(capsys, ["audit", "--input", str(data), "--predictions",
                        str(log)]) == \
        (2, "", "error: prediction log has 3 rows, dataset has 4\n")
    empty = tmp_path / "empty.arff"
    empty.write_text("@relation r\n@attribute cls {A,B}\n@data\n")
    log.write_text("true,predicted\nA,A\nB,A\n")
    assert run(capsys, ["audit", "--input", str(empty), "--predictions",
                        str(log)]) == \
        (2, "", "error: an empty stream has no first instance\n")


def test_audit_counts_a_prediction_outside_the_class_values(tmp_path, capsys):
    data, log = tmp_path / "labels.csv", tmp_path / "log.csv"
    data.write_text("label\nA\nB\nB\nA\n")
    log.write_text("true,predicted\nA,A\nB,Z\nB,B\nA,Z\n")
    code, out, _ = run(capsys, ["audit", "--input", str(data),
                                "--predictions", str(log)])
    doc = json.loads(out)
    assert (code, doc["n"], doc["accuracy"]) == (0, 4, 0.5)
    assert doc["confusion"] == {"A": {"A": 1, "Z": 1}, "B": {"B": 1, "Z": 1}}


def test_eval_restart_at_minus_0_is_named_restart_0(synth_csv, capsys):
    reports = [run(capsys, ["eval", "--input", str(synth_csv), "--learner",
                            spec]) for spec in ("restart:-0", "restart:0")]
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["classifier"] == "restart:0"


def test_eval_restart_equals_persistence_at_rho_1(synth_csv, capsys):
    code, out, _ = run(capsys, ["eval", "--input", str(synth_csv),
                                "--learner", "restart:1"])
    acc_restart = json.loads(out)["accuracy"]
    code, out, _ = run(capsys, ["eval", "--input", str(synth_csv),
                                "--learner", "persistence"])
    assert json.loads(out)["accuracy"] == acc_restart


def test_stdin_input(synth_csv, capsys, monkeypatch):
    import io
    import sys
    text = synth_csv.read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["summary", "--input", "-", "--format", "csv"])
    assert code == 0
    assert json.loads(out)["n_instances"] == 3000


def test_stdin_input_defaults_to_arff(tmp_path, capsys, monkeypatch):
    import io
    import sys
    path = tmp_path / "labels.arff"
    assert main(["synth", "markov", "--n", "500", "--prior", "0.42",
                 "--acf1", "0.8", "--seed", "7", "--out", str(path)]) == 0
    code, from_file, _ = run(capsys, ["summary", "--input", str(path)])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, from_stdin, _ = run(capsys, ["summary", "--input", "-"])
    assert code == 0 and from_stdin == from_file
    assert json.loads(from_stdin)["n_instances"] == 500


def test_arff_header_fault_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.arff"
    path.write_text("@relation r\n@attribute x widget\n@data\n")
    code, out, err = run(capsys, ["summary", "--input", str(path)])
    assert code == 2 and out == ""
    assert err == "error: line 2: unknown attribute type 'widget'\n"


def test_sweep_help_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--reps" in out and "--threads" not in out


def test_eval_label_learners_equal_audit_bars(tmp_path, capsys):
    # the first label is U, the first declared class is D: learners must
    # start on the stream's first label, as the bars do
    path = tmp_path / "ud.arff"
    path.write_text("@relation ud\n@attribute x numeric\n"
                    "@attribute cls {D,U}\n@data\n"
                    "0,U\n0,U\n0,D\n0,D\n")
    code, out, _ = run(capsys, ["audit", "--input", str(path),
                                "--accuracy", "0.5"])
    assert code == 0
    bars = json.loads(out)["bars"]
    expected = {"persistence": bars["persistence"],
                "restart:1": bars["persistence"],
                "majority": bars["majority"],
                "restart:0": bars["majority"]}
    for learner, bar in expected.items():
        code, out, _ = run(capsys, ["eval", "--input", str(path),
                                    "--learner", learner])
        assert code == 0
        assert json.loads(out)["accuracy"] == bar, learner


# byte-identity gate for `eval` on the label-only learners: sha256 of the
# report JSON, computed with the per-instance learners run through
# prequential_eval

@pytest.fixture()
def eval_inputs(tmp_path, capsys):
    arff = tmp_path / "markov.arff"
    assert main(["synth", "markov", "--n", "3000", "--prior", "0.42",
                 "--acf1", "0.8", "--seed", "7", "--out", str(arff)]) == 0
    sticky = tmp_path / "sticky3.csv"
    sticky.write_text(write_csv(("label",),
                                zip(sticky_stream(3000, "ABC", 0.7, 5))))
    capsys.readouterr()
    return {"markov-arff": arff, "sticky-3class-csv": sticky}


@pytest.mark.parametrize("stream, learner, digest", [
    ("markov-arff", "majority",
     "a8608b9c6337458f57422644a54c6b0f0d5ff07df09071bfa93b12d5ac3a99e9"),
    ("markov-arff", "persistence",
     "e7e2650dc506088da612e3140437e142df501e906b85fa94bdbcb65aca28d935"),
    ("markov-arff", "restart:0.3",
     "6e6ae5edc7206e27e989d0e4d8973d6e233e19df62004f580045176ca27eed19"),
    ("markov-arff", "restart:0.5",
     "adb1c4d04d1fb729d792b8406ff0a7bfa1ae59f4542566aea9a0c4d345f44b7c"),
    ("sticky-3class-csv", "majority",
     "49854b592c0cccf54ad128763e5a70ffe933524767d064d829e48ec9ca13f36f"),
    ("sticky-3class-csv", "persistence",
     "cd2c15c63a98a4138254c6542e495882d1fa1bd9cbfb78d489ab3e3d0ac56fd3"),
    ("sticky-3class-csv", "restart:0.3",
     "099b920f9317851465614c4f2e1d477340e14cab6edfb9b206e3a8d46e169c9f"),
    ("sticky-3class-csv", "restart:0.5",
     "d58283ae3d197401d108c5bf67046bf20413d0ceaa7a9c819aa40159d44cf737"),
])
def test_eval_json_golden_sha256(eval_inputs, capsys, stream, learner,
                                 digest):
    code, out, err = run(capsys, ["eval", "--input", str(eval_inputs[stream]),
                                  "--learner", learner, "--seed", "7"])
    assert code == 0
    assert err == ("# seed=7\n" if learner.startswith("restart:") else "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# `acf` counts the classes that occur, however many

def test_acf_binary_stream_with_a_declared_absent_class(tmp_path, capsys):
    labels = list("AABBBABAABBBAAAB")
    path = tmp_path / "abc.arff"
    path.write_text("@relation r\n@attribute class {A,B,C}\n@data\n"
                    + "\n".join(labels) + "\n")
    code, out, err = run(capsys, ["acf", "--input", str(path),
                                  "--max-lag", "2"])
    assert code == 0, err
    acf = diagnose(parse_arff(str(path)), max_lag=2).acf
    assert out == acf.to_csv()


def test_acf_three_class_stream_prints_the_oracle_csv(tmp_path, capsys):
    path = tmp_path / "abc.arff"
    path.write_text("@relation r\n@attribute class {A,B,C}\n@data\n"
                    + "\n".join("AABBCCAB") + "\n")
    code, out, err = run(capsys, ["acf", "--input", str(path),
                                  "--max-lag", "2"])
    assert code == 0 and err == ""
    assert out == oracle_autocorrelation(list("AABBCCAB"), 2).to_csv()


# byte-identity gate for `audit --predictions`: sha256 of its JSON,
# computed before the audit read class codes and shared the log's pairs

@pytest.mark.parametrize("stream, digest", [
    ("markov-arff",
     "5ebb2450e1e736342d79b7c33f366de98c6177777b94fe4d4086aa4f5c1755ea"),
    ("sticky-3class-csv",
     "c40b22416d9fde7963b1d6afce5d45e47add04c7ef1a33621f16e8efef59b630"),
])
def test_audit_predictions_json_golden_sha256(eval_inputs, tmp_path, capsys,
                                              stream, digest):
    path = eval_inputs[stream]
    labels = parse_arff(str(path)).labels() if stream == "markov-arff" \
        else parse_csv(str(path)).labels()
    predicted = sticky_stream(len(labels), sorted(set(labels)), 0.6, 17)
    log = tmp_path / "log.csv"
    log.write_text(write_prediction_log(list(zip(labels, predicted))))
    code, out, _ = run(capsys, ["audit", "--input", str(path),
                                "--predictions", str(log)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_assert_above_bar_fails_below_majority(tmp_path, capsys):
    # iid labels put the majority bar (0.5777) above persistence (0.5109)
    path = tmp_path / "iid.csv"
    assert main(["synth", "iid", "--n", "45312", "--prior", "0.42",
                 "--seed", "7", "--out", str(path)]) == 0
    code, out, _ = run(capsys, ["audit", "--input", str(path), "--accuracy",
                                "0.5341", "--assert-above-bar"])
    assert code == 3
    assert json.loads(out)["verdict"] == "BelowMajority"


# byte-identity gate for the commands that read only a CSV's class column:
# sha256 of their stdout on a 9-column CSV with a nominal feature, computed
# while they parsed every column; and for naive Bayes' whole-stream pass,
# computed while it ran instance by instance

@pytest.fixture()
def nine_column_csv(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text(multiclass_csv(n=3000, seed=11), encoding="utf-8")
    labels = parse_csv(str(path)).labels()
    log = tmp_path / "log.csv"
    log.write_text(write_prediction_log(list(zip(
        labels, sticky_stream(len(labels), ("low", "mid", "high"), 0.9, 3)))))
    return path, log


@pytest.mark.parametrize("argv, err, digest", [
    (["audit", "--accuracy", "0.886"], "",
     "163f867fcbdcc2663d57542410e74d123027b05edb847a4adb73f4aa51449383"),
    (["audit", "--predictions", "LOG"], "",
     "d58865cfebdc779eec5a48fec60a60cce70e6d12de22ae75d8c217ddd951fbbb"),
    (["acf", "--max-lag", "96"], "",
     "0339494faae80fbced7029dca824b82d96c498ab5aef9969052a81aa2d0c3365"),
    (["sweep", "--grid", "0:1:0.25", "--reps", "3", "--seed", "7"],
     "# seed=7\n",
     "d1459bd72262e789698edc90d3ebb7ae7b828251ef8470e30dfbd2f580cd45b9"),
    (["eval", "--learner", "restart:0.5", "--seed", "7"], "# seed=7\n",
     "0c525bfa1950727426f9e1ad00b02bf1879ec3cd3948e486bdca3424cc8accc3"),
    # 3-class naive Bayes with a nominal feature, which reads every column
    (["eval", "--learner", "naive-bayes"], "",
     "1519ebb7cc9ad5df76639a4b26ae259b9183c7c690eb29a4c84df6a8824f4212"),
], ids=["audit-accuracy", "audit-predictions", "acf", "sweep",
        "eval-restart", "eval-naive-bayes"])
def test_label_commands_on_a_nine_column_csv_golden_sha256(
        nine_column_csv, capsys, argv, err, digest):
    path, log = nine_column_csv
    argv = [argv[0], "--input", str(path)] + \
        [str(log) if a == "LOG" else a for a in argv[1:]]
    code, out, got_err = run(capsys, argv)
    assert (code, got_err) == (0, err)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the label-only commands read a CSV's class column alone, yet fail on a
# faulty CSV exactly as `eval --learner naive-bayes`, which reads every
# column, does; so does `summary`, a label-only command too

LABEL_COMMANDS = [["summary"], ["audit", "--accuracy", "0.9"],
                  ["acf", "--max-lag", "1"],
                  ["sweep", "--grid", "0:1:0.5", "--reps", "1"],
                  ["eval", "--learner", "majority"],
                  ["eval", "--learner", "restart:0.3"]]


@pytest.mark.parametrize("text", [
    "x,day,cls\n1,mon,A\n2,,B\n",
    "x,day,cls\n1,mon,A\n2,\u3000,B\n",
    "x,day,cls\n1,mon,A\n2,\x1c,B\n3,tue\n",
    "x,day,cls\n1,mon,A\n2,tue,B,C\n",
    'x,day,cls\n1,"mon\ntue",A\n2,,B\n',
    "x,day,cls\n",
    "x,day,\n1,mon,\n",
], ids=["empty-feature", "ideographic-space", "x1c-then-ragged", "ragged",
        "quoted-then-empty", "no-rows", "empty-class"])
@pytest.mark.parametrize("argv", LABEL_COMMANDS,
                         ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_label_commands_fail_on_a_csv_as_summary_does(tmp_path, capsys,
                                                      text, argv):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    full = run(capsys, ["eval", "--input", str(path), "--learner",
                        "naive-bayes"])
    assert full[:2] == (2, "") and full[2].startswith("error: ")
    assert run(capsys, [argv[0], "--input", str(path)] + argv[1:]) == full


def test_undecodable_or_oversized_input_exits_2_without_a_traceback(
        tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("x,cls\n1,caf\xe9\n".encode("latin-1"))
    for argv in [["eval", "--learner", "naive-bayes"]] + LABEL_COMMANDS:
        code, out, err = run(capsys, [argv[0], "--input", str(latin1)]
                             + argv[1:])
        assert (code, out, err) == \
            (2, "", f"error: {latin1} is not UTF-8 text\n"), argv
    arff = tmp_path / "latin1.arff"
    arff.write_bytes("@relation r\n@attribute cls {A,B}\n@data\n% caf\xe9\nA\n"
                     .encode("latin-1"))
    assert run(capsys, ["acf", "--input", str(arff), "--max-lag", "1"]) == \
        (2, "", f"error: {arff} is not UTF-8 text\n")
    good = tmp_path / "good.csv"
    good.write_text("x,cls\n1,A\n2,B\n")
    log = tmp_path / "log.csv"
    log.write_bytes("true,predicted\ncaf\xe9,A\n".encode("latin-1"))
    assert run(capsys, ["audit", "--input", str(good), "--predictions",
                        str(log)]) == \
        (2, "", f"error: {log} is not UTF-8 text\n")
    old = csv.field_size_limit(16)
    try:
        long = tmp_path / "long.csv"
        long.write_text("x,cls\n1,A\n" + "1" * 20 + ",B\n")
        code, out, err = run(capsys, ["summary", "--input", str(long)])
    finally:
        csv.field_size_limit(old)
    assert (code, out) == (2, "")
    assert err == "error: line 3: field larger than field limit (16)\n"
