"""Run the streamaudit CLI with spans around its public calls.

    traced_cli.py SPANS_JSON [streamaudit arguments...]

Exits with the CLI's exit code after writing the spans it recorded.
"""

import json
import sys

import tracing
import workloads


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from streamaudit import cli
    tracer = tracing.Tracer()
    with tracer.installed(workloads.trace_targets()):
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
