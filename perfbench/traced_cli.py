"""Run one procmap CLI command with span recording (traced demo-cli run).

Usage: python traced_cli.py SPANS_OUT PROCMAP_ARGS...

Calls `procmap.cli.main(PROCMAP_ARGS)` with the tracer installed, writes the
recorded spans to SPANS_OUT as JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import procmap.cli

    tracer = Tracer()
    tracer.install()
    try:
        return procmap.cli.main(argv)
    finally:
        Path(spans_out).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
