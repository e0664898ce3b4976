"""Run the rfree CLI with spans at its layer boundaries.

Usage: python -u perfbench/traced_cli.py SUMMARY.json <rfree arguments>

Behaves like the ``rfree`` console script (same arguments, output and exit
status) and, when the command returns, writes the tracer's summary to
SUMMARY.json. ``start`` (the launcher's first line) and ``end`` (summary
written) are ``perf_counter`` readings, which share one monotonic clock
with the parent on Linux.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("startup.import")
    import rfree.cli

    tracer.end(idx)
    layers.install(tracer)
    status = 1
    try:
        status = rfree.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        main_end = time.perf_counter()
        summary = tracer.summary()
        summary["start"] = START
        summary["end"] = time.perf_counter()
        # The tracer's own work: its imports before the first span, and
        # computing this summary.
        summary["own_s"] = (tracer.spans[0][1] - START) + (summary["end"] - main_end)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
