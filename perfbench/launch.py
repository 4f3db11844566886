"""Run one ``oasiskg`` CLI command as a benchmark child.

Usage: ``python3 launch.py REPORT_FILE TRACE COMMAND [ARGS...]``.  Calls
``oasiskg.cli.main`` with the arguments and exits with its exit code.
With TRACE ``1`` the span wrappers from ``tracing.py`` are installed
first.  REPORT_FILE receives the process's own peak resident memory
(``VmHWM``, which unlike ``ru_maxrss`` does not count the parent's pages
from before ``exec``) and, when traced, the spans and counters.  The
package must be importable (the benchmark passes an absolute
``PYTHONPATH``).
"""

import json
import sys

from tracing import Tracer


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_file, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import oasiskg.cli

    tracer = Tracer(run_id=argv[0])
    if traced:
        tracer.install()
    try:
        code = oasiskg.cli.main(argv)
    finally:
        sys.stdout.flush()
        report = tracer.export() if traced else {}
        report["peak_rss_kb"] = peak_rss_kb()
        with open(report_file, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
