"""Command-line interface.

Subcommands: summary, audit, acf, sweep, synth, eval. All machine-readable
output is CSV or JSON; plotting is left to external tools. Randomized
subcommands default to seed 42; synth and sweep write it into their
output's first line, eval --learner restart:RHO prints it only on stderr.

Exit codes: 0 success, 1 usage error, 2 parse/data error, 3 failed
--assert-above-bar assertion.
"""

import argparse
import json
import os
import sys

from . import baselines, diagnostics, evaluation, stream_io, synth
from .errors import InvalidModel, InvalidRho, StreamAuditError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERTION = 3

DEFAULT_SEED = 42
MAX_GRID_VALUES = 10_001  # 0:1:0.0001


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() can map usage errors to exit 1
    def error(self, message):
        raise _UsageError(message)


# The types that own a rule check it. argparse checks --accuracy and --max-lag,
# whose owners need the stream, as a usage error comes before the input is
# read; and --reps, as SweepConfig would take three more lines of try/except
def _probability(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} not in [0, 1]")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not an integer >= 1")
    return value


def _parse_grid(text):
    """LO:HI:STEP, inclusive of HI when (HI-LO) is a multiple of STEP,
    each value rounded to 12 decimals; SweepConfig checks the values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not step > 0 or hi < lo:
        raise argparse.ArgumentTypeError("need STEP > 0 and HI >= LO")
    try:
        # before counting: a HI far out with a small STEP is a huge count
        baselines.SweepConfig((lo,) if lo == hi else (lo, hi))
        # counted before it is built; m may be inf (a tiny STEP), so it is
        # capped, at a value whose count is over the cap too
        m = min((hi - lo) / step, MAX_GRID_VALUES)
        count = round(m) if abs(m - round(m)) < 1e-9 else int(m)
        if count + 1 > MAX_GRID_VALUES:
            raise argparse.ArgumentTypeError(
                f"grid has more than {MAX_GRID_VALUES} values")
        return baselines.SweepConfig(
            round(lo + i * step, 12) for i in range(count + 1)).rho_grid
    except (InvalidRho, ValueError) as exc:  # SweepConfig's refusals
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_dataset(path, fmt=None, class_only=False):
    """The dataset at path ('-' for stdin) and its feature count. With
    class_only a CSV's class column is the only one read, and the count is
    the header's; an ARFF is read whole, since its feature values are
    checked against their declared types."""
    if fmt is None:  # stdin, "-", is an ARFF
        fmt = "csv" if path.lower().endswith(".csv") else "arff"
    source = sys.stdin if path == "-" else path
    if fmt == "arff":
        ds = stream_io.parse_arff(source)
    elif class_only:
        return stream_io._read_csv(source, class_only=True)
    else:
        ds = stream_io.parse_csv(source)
    return ds, ds.n_features


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser():
    parser = _Parser(prog="streamaudit",
                     description="Label-autocorrelation diagnostics and naive "
                                 "baselines for data-stream benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True,
                       help="dataset path (.arff or .csv), or '-' for stdin")
        p.add_argument("--format", choices=["arff", "csv"], default=None,
                       help="override format inferred from the extension")

    p = sub.add_parser("summary", help="dataset summary as JSON")
    add_input(p)

    p = sub.add_parser("audit",
                       help="grade an accuracy or a prediction log against "
                            "the naive bars")
    add_input(p)
    graded = p.add_mutually_exclusive_group(required=True)
    graded.add_argument("--accuracy", type=_probability,
                        help="externally reported accuracy to grade")
    graded.add_argument("--predictions",
                        help="CSV prediction log with header 'true,predicted'")
    p.add_argument("--assert-above-bar", action="store_true",
                   help="exit 3 unless the verdict is AbovePersistence")

    p = sub.add_parser("acf", help="label autocorrelation series as CSV, "
                                   "any number of classes")
    add_input(p)
    p.add_argument("--max-lag", type=_positive_int, required=True)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("sweep",
                       help="accuracy of the random-restart classifier over "
                            "a rho grid")
    add_input(p)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   metavar="LO:HI:STEP")
    p.add_argument("--reps", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="per-run CSV (default stdout)")
    p.add_argument("--summary", dest="summary_out", default=None,
                   help="per-rho summary CSV")

    p = sub.add_parser("synth", help="generate a synthetic label stream")
    synth_sub = p.add_subparsers(dest="model", required=True)
    for model in ("markov", "iid"):
        q = synth_sub.add_parser(model)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--prior", type=float, required=True,
                       help="stationary probability of class 1")
        if model == "markov":
            q.add_argument("--acf1", type=float, required=True,
                           help="lag-1 autocorrelation target")
        q.add_argument("--seed", type=int, default=DEFAULT_SEED)
        q.add_argument("--out", default=None,
                       help="label CSV, or .arff for ARFF (default stdout)")

    p = sub.add_parser("eval", help="prequential test-then-train evaluation")
    add_input(p)
    p.add_argument("--learner", required=True,
                   help="naive-bayes | majority | persistence | restart:RHO")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="report JSON (default stdout)")
    return parser


def _learner_policy(spec, seed):
    """Parse a --learner spec: None for naive-bayes, else the restart
    policy of the label-only learner (majority is rho 0, persistence 1)."""
    if spec == "naive-bayes":
        return None
    if spec in ("majority", "persistence"):
        return baselines.RestartPolicy(float(spec == "persistence"), seed)
    if not spec.startswith("restart:"):
        raise _UsageError(f"unknown learner {spec!r}")
    try:
        return baselines.RestartPolicy(float(spec.split(":", 1)[1]), seed)
    except (InvalidRho, ValueError) as exc:
        raise _UsageError(f"learner {spec!r}: {exc}") from None


def _cmd_summary(args):
    ds, n_features = _load_dataset(args.input, args.format, class_only=True)
    summary = stream_io.dataset_summary(ds)
    summary["n_features"] = n_features
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_audit(args):
    ds, _ = _load_dataset(args.input, args.format, class_only=True)
    if args.predictions is not None:
        log = evaluation.read_prediction_log(args.predictions)
        verdict, report = evaluation.audit_prediction_log(log, ds)
        print(verdict.to_json(n=report.n, confusion=report.confusion))
    else:
        verdict = evaluation.audit_accuracy(args.accuracy, ds)
        print(verdict.to_json(n=ds.n_instances))
    if args.assert_above_bar and \
            verdict.verdict is not evaluation.Verdict.ABOVE_PERSISTENCE:
        print(f"assertion failed: verdict is {verdict.verdict.value}",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_acf(args):
    ds, _ = _load_dataset(args.input, args.format, class_only=True)
    series = diagnostics.autocorrelation(ds, args.max_lag)
    _write(args.out, series.to_csv())
    return EXIT_OK


def _cmd_sweep(args):
    out, summary = args.out, args.summary_out
    if out not in (None, "-") and summary not in (None, "-") and \
            os.path.realpath(out) == os.path.realpath(summary):
        raise _UsageError("--out and --summary name the same file")
    ds, _ = _load_dataset(args.input, args.format, class_only=True)
    config = baselines.SweepConfig(args.grid, args.reps, args.seed)
    result = baselines.rho_sweep(ds, config)
    print(f"# seed={args.seed}", file=sys.stderr)
    _write(args.out, result.to_csv())
    if args.summary_out is not None:
        _write(args.summary_out, result.summary_to_csv())
    return EXIT_OK


def _cmd_synth(args):
    if args.model == "markov":
        model = synth.MarkovLabelModel(args.prior, args.acf1, args.n,
                                       args.seed)
        labels = synth.gen_markov_labels(model)
    else:
        labels = synth.gen_iid_labels(args.prior, args.n, args.seed)
    print(f"# seed={args.seed}", file=sys.stderr)
    if args.out is not None and args.out.lower().endswith(".arff"):
        text = f"% seed={args.seed}\n" + synth.labels_to_arff(labels)
    else:
        text = synth.labels_to_csv(labels, seed=args.seed)
    _write(args.out, text)
    return EXIT_OK


def _cmd_eval(args):
    policy = _learner_policy(args.learner, args.seed)
    ds, _ = _load_dataset(args.input, args.format,
                          class_only=policy is not None)
    name = args.learner
    if policy is None:
        true, classes = ds.columns[ds.class_index], ds.class_values
        trace = evaluation._naive_bayes_trace(ds)
    else:
        # the kernel and cold start of the bars, so restart:1 ==
        # persistence and restart:0 == majority hold across commands
        stream = baselines._CodedStream(ds)
        true, classes = stream.codes, stream.classes
        trace = stream.trace(stream.restarts(policy))
        if name.startswith("restart:"):
            name = f"restart:{policy.rho:g}"
            print(f"# seed={args.seed}", file=sys.stderr)
    report = evaluation._score(name, true, trace, classes)
    _write(args.out, report.to_json() + "\n")
    return EXIT_OK


_COMMANDS = {
    "summary": _cmd_summary,
    "audit": _cmd_audit,
    "acf": _cmd_acf,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, InvalidModel) as exc:  # a refused synth model
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StreamAuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
