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
import sys

from . import baselines, diagnostics, evaluation, stream_io, synth
from .errors import StreamAuditError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERTION = 3

DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() can map usage errors to exit 1
    def error(self, message):
        raise _UsageError(message)


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
    """LO:HI:STEP, inclusive of HI when (HI-LO) is a multiple of STEP."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not step > 0 or hi < lo:
        raise argparse.ArgumentTypeError("need STEP > 0 and HI >= LO")
    # before counting: a HI far out with a small STEP is a huge count
    if not 0.0 <= lo <= hi <= 1.0:
        raise argparse.ArgumentTypeError("grid values must lie in [0, 1]")
    m = (hi - lo) / step
    count = round(m) if abs(m - round(m)) < 1e-9 else int(m)
    grid = [round(lo + i * step, 12) for i in range(count + 1)]
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise argparse.ArgumentTypeError("grid values must lie in [0, 1]")
    return tuple(grid)


def _load_dataset(path, fmt=None, class_only=False):
    """The dataset at path ('-' for stdin). With class_only a CSV's class
    column is the only one read; an ARFF is read whole, since its feature
    values are checked against their declared types."""
    if fmt is None:
        if path == "-":
            fmt = "arff"
        else:
            fmt = "csv" if path.lower().endswith(".csv") else "arff"
    source = sys.stdin if path == "-" else path
    if fmt == "arff":
        return stream_io.parse_arff(source)
    if class_only:
        return stream_io._read_csv(source, class_only=True)
    return stream_io.parse_csv(source)


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
    p.add_argument("--accuracy", type=_probability, default=None,
                   help="externally reported accuracy to grade")
    p.add_argument("--predictions", default=None,
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
        q.add_argument("--prior", type=_probability, required=True,
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


def _learner_rho(spec):
    """Check a --learner spec; returns None for naive-bayes, else the
    restart rho of the label-only learner (majority is 0, persistence 1)."""
    if spec == "naive-bayes":
        return None
    if spec in ("majority", "persistence"):
        return float(spec == "persistence")
    if spec.startswith("restart:"):
        try:
            return _probability(spec.split(":", 1)[1])
        except (argparse.ArgumentTypeError, ValueError):
            raise _UsageError(
                f"learner {spec!r}: RHO must be a number in [0, 1]") from None
    raise _UsageError(f"unknown learner {spec!r}")


def _cmd_summary(args):
    ds = _load_dataset(args.input, args.format)
    print(json.dumps(stream_io.dataset_summary(ds), indent=2))
    return EXIT_OK


def _cmd_audit(args):
    if (args.accuracy is None) == (args.predictions is None):
        raise _UsageError("give exactly one of --accuracy or --predictions")
    ds = _load_dataset(args.input, args.format, class_only=True)
    if args.predictions is not None:
        log = evaluation.read_prediction_log(args.predictions)
        verdict, report = evaluation.audit_prediction_log(log, ds.labels())
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
    ds = _load_dataset(args.input, args.format, class_only=True)
    series = diagnostics.autocorrelation(ds, args.max_lag)
    _write(args.out, series.to_csv())
    return EXIT_OK


def _cmd_sweep(args):
    ds = _load_dataset(args.input, args.format, class_only=True)
    config = baselines.SweepConfig(args.grid, args.reps, args.seed)
    print(f"# seed={args.seed}", file=sys.stderr)
    result = baselines.rho_sweep(ds, config)
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
    rho = _learner_rho(args.learner)
    ds = _load_dataset(args.input, args.format, class_only=rho is not None)
    if rho is None:
        report = evaluation.prequential_eval(
            evaluation.NaiveBayesLearner(ds), ds)
    else:
        # the kernel and cold start of the bars, so restart:1 ==
        # persistence and restart:0 == majority hold across commands
        labels = ds.labels()
        trace = baselines.random_restart_trace(
            labels, baselines.RestartPolicy(rho, args.seed))
        name = args.learner
        if name.startswith("restart:"):
            name = f"restart:{rho:g}"
            print(f"# seed={args.seed}", file=sys.stderr)
        report = evaluation._score(name, zip(labels, trace))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StreamAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
