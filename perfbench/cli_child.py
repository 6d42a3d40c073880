"""One traced `fpxplain query` process, for the traced run of the cli workload.

Usage: python perfbench/cli_child.py OUT.json QUERY_ID query --model ...

Imports fpxplain.cli, installs the span wrappers, runs the CLI with the
remaining arguments and writes the spans to OUT.json on exit, keeping the
CLI's exit code.
"""

import json
import os
import sys
import time

from spans import Tracer

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def main() -> None:
    out_path, query = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import fpxplain.cli as cli
    end = time.perf_counter()
    with open(SPEC_PATH) as fh:
        tracer = Tracer(json.load(fh)["layers"])
    tracer.query = query
    tracer.spans.append(("cli.import", "cli.import", start, end, None, query, False))
    tracer.install()
    try:
        tracer.span("cli.main", "cli.main", cli.main.main, args=sys.argv[3:],
                    prog_name="fpxplain")
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    main()
