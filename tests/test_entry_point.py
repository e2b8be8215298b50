"""The command line end to end, on generated inputs: commands exit 0, twin
inputs print identical output, and a bad input exits 2 with one error
line. Commands run in process through cli.main; a `python -m
streamaudit.cli` process runs only where the process is what is checked:
its stdin, redirected or piped, and its exit status."""
import json
import re
import subprocess
import sys

import pytest
from conftest import REPO_ROOT, run

from streamaudit import parse_arff, write_prediction_log
from streamaudit.cli import main
from streamaudit.stream_io import write_csv

QUOTED = {"0": "a,b", "1": 'say "x"'}  # labels that csv.writer quotes
SUMMARY_AND_AUDIT = ["summary", "audit --accuracy 0.8"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("entry")
    for ext in ("arff", "csv"):
        assert main(["synth", "markov", "--n", "2000", "--prior", "0.42",
                     "--acf1", "0.8", "--out", str(d / f"x.{ext}")]) == 0
    y = parse_arff(str(d / "x.arff")).labels()
    log = list(zip(y, y[:1] + y[:-1]))  # persistence's predictions
    (d / "log.csv").write_text(write_prediction_log(log))
    for name, m in (("plain", str), ("quoted", QUOTED.get)):
        (d / f"{name}-labels.csv").write_text(
            write_csv(("label",), [(m(v),) for v in y]))
        (d / f"{name}-log.csv").write_text(
            write_prediction_log([(m(a), m(b)) for a, b in log]))
    q = "'b c'"
    text = ("% c\n@relation r\n@attribute x numeric\n@attribute cls {A,"
            + q + "}\n@data\n" + "".join("%r,%s\n" % (i / 4, ("A", q)[
                i % 3 // 2]) for i in range(300)))
    for end, brk in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        (d / f"ends-{end}.arff").write_text(text.replace("\n", brk),
                                            newline="")
    # a '%' line and a blank line in the third 4,096-line block
    rows = ["%r,%s\n" % (i / 8, "AB"[i // 7 % 2]) for i in range(10000)]
    head = "@relation r\n@attribute x numeric\n@attribute cls {A,B}\n@data\n"
    (d / "blocks-plain.arff").write_text(head + "".join(rows))
    rows[9000:9000] = ["% a comment\n", "\n"]
    (d / "blocks-odd.arff").write_text(head + "".join(rows))
    (d / "abc.csv").write_text("label\n" + "\n".join("AABBBCCA" * 250) + "\n")
    (d / "multi.csv").write_text("t,day,x,cls\n" + "".join(
        "%d,%s,%.3f,%s\n" % (i, "mtw"[i % 3], i / 7, "ABC"[i // 9 % 3])
        for i in range(300)))
    (d / "blank.csv").write_text("t,day,cls\n1,mon,A\n2, ,B\n")
    return d


@pytest.fixture(autouse=True)
def in_files(files, monkeypatch):
    monkeypatch.chdir(files)


@pytest.mark.parametrize("argv, shows", [
    *((f"{cmd} --input x.arff", "") for cmd in [
        "audit --accuracy 0.8", "acf --max-lag 48",
        "audit --predictions log.csv", "eval --learner persistence",
        "eval --learner naive-bayes"]),
    *((f"{cmd} --input x.csv", "") for cmd in [
        "summary", "audit --accuracy 0.8", "sweep --grid 0:1:0.5 --reps 2 "
        "--summary s.csv", "eval --learner majority",
        "eval --learner restart:0.3"]),
    ("acf --input abc.csv --max-lag 48", ""),
    *((f"{cmd} --input multi.csv", "") for cmd in [
        *SUMMARY_AND_AUDIT, "acf --max-lag 24",
        "sweep --grid 0:1:0.5 --reps 2", "eval --learner restart:0.3",
        "eval --learner naive-bayes"]),
    ("summary --input ends-cr.arff", '"b c": 100'),
])
def test_command_exits_0(capsys, argv, shows):
    code, out, _ = run(capsys, argv.split())
    assert code == 0 and shows in out


@pytest.mark.parametrize("argv, twin, relabel", [
    *((f"{cmd} --input {a}.arff", f"{cmd} --input {b}.arff", {})
      for cmd in SUMMARY_AND_AUDIT
      for a, b in [("ends-lf", "ends-crlf"), ("ends-lf", "ends-cr"),
                   ("blocks-plain", "blocks-odd")]),
    ("audit --input plain-labels.csv --predictions plain-log.csv",
     "audit --input quoted-labels.csv --predictions quoted-log.csv", QUOTED),
])
def test_twin_inputs_print_identical_output(capsys, argv, twin, relabel):
    (code, out, _), (twin_code, twin_out, _) = (run(capsys, a.split())
                                                for a in (argv, twin))
    for plain, label in relabel.items():
        out = out.replace(json.dumps(plain), json.dumps(label))
    assert code == twin_code == 0 and out == twin_out


@pytest.mark.parametrize("cmd", [*SUMMARY_AND_AUDIT, "acf --max-lag 1",
                                 "sweep --grid 0:1:0.5",
                                 "eval --learner restart:0.3"])
def test_a_blank_feature_cell_exits_2_with_one_error_line(capsys, cmd):
    code, out, err = run(capsys, [*cmd.split(), "--input", "blank.csv"])
    assert (code, out) == (2, "") and re.fullmatch("error: .*\n", err)


def process(argv, **kwargs):
    """`python -m streamaudit.cli argv` from the repository root, as tier-1
    runs: its exit status, stdout and stderr."""
    proc = subprocess.run([sys.executable, "-m", "streamaudit.cli", *argv],
                          capture_output=True, cwd=REPO_ROOT, **kwargs)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("piped", [False, True], ids=["redirected", "piped"])
@pytest.mark.parametrize("fmt", ["arff", "csv"])
def test_stdin_with_a_byte_order_mark_reads_as_the_file(files, capsys, fmt,
                                                        piped):
    argv = ["summary", "--format", fmt, "--input"]
    marked = files / f"bom-x.{fmt}"
    marked.write_bytes(b"\xef\xbb\xbf" + (files / f"x.{fmt}").read_bytes())
    with open(marked, "rb") as fh:
        got = process(argv + ["-"], **({"input": fh.read()} if piped
                                       else {"stdin": fh}))
    assert got == run(capsys, argv + [f"x.{fmt}"])


@pytest.mark.parametrize("name, code", [("multi.csv", 0), ("blank.csv", 2)])
def test_summary_of_a_csv_on_stdin_prints_what_the_path_read_does(
        capsys, monkeypatch, name, code):
    # the class-only read takes the feature count from the header
    expected = run(capsys, ["summary", "--input", name])
    assert expected[0] == code
    with open(name, encoding="utf-8", newline="") as fh:
        monkeypatch.setattr(sys, "stdin", fh)
        assert run(capsys, ["summary", "--input", "-", "--format", "csv"]) \
            == expected


@pytest.mark.parametrize("argv, status", [
    ("summary --input blank.csv", 2),
    ("sweep --grid 0:inf:1 --input x.csv", 1),
    ("audit --accuracy 0.5 --assert-above-bar --input x.csv", 3)])
def test_the_process_exits_with_the_status_main_returns(files, capsys, argv,
                                                        status):
    argv = [str(files / a) if a.endswith(".csv") else a for a in argv.split()]
    got = process(argv)
    assert got[0] == status and got == run(capsys, argv)
