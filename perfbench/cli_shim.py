"""Run one ``plap`` command under the benchmark tracer.

    python3 perfbench/cli_shim.py --stats OUT.npz -- <plap arguments>

Behaves like ``python3 -m plap.cli <plap arguments>`` (same stdout, same exit
code) and also writes the command's spans and counts to OUT.npz.
"""

import json
import sys

import plap
import plap.cli
from tracer import Tracer, save_spans


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--stats" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install(plap)
    code = 1
    try:
        code = plap.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        extra = {
            "snapshot": tracer.snapshot(),
            "error_span": tracer.error_span if code else None,
        }
        save_spans(argv[1], tracer.spans(), extra=json.dumps(extra))
    return code


if __name__ == "__main__":
    sys.exit(main())
