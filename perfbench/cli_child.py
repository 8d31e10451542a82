"""Run the stieltjes CLI in this process with the span recorder installed.

    python3 perfbench/cli_child.py <stieltjes arguments>

Used for the traced pass of the cli-oneshot workload, with `src` on
PYTHONPATH.  The CLI's standard output is left untouched; the last line of
standard error is a JSON summary (import time, spans, counters) that the
parent merges into its own trace.
"""

import json
import sys
import time

t0 = time.perf_counter()
import stieltjes.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import SUMMARY_MARK, Recorder  # noqa: E402


def main() -> int:
    rec = Recorder()
    rec.install()
    rec.op = 0
    try:
        code = stieltjes.cli.main(sys.argv[1:])
    finally:
        rec.op = None
        rec.uninstall()
    sys.stdout.flush()
    summary = {"import_s": IMPORT_S, "spans": rec.spans, **rec.counters()}
    sys.stderr.write("\n" + SUMMARY_MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
