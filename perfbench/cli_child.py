"""Run ``lefweave`` under the tracer: cli_child.py STATS_PATH ARGS...

The traced run of the cli-scripts workload starts this in place of
``python -m lefweave.cli``.  It installs the wrappers, calls
``lefweave.cli.main(ARGS)``, writes the per-name counters and the spans
as JSON to STATS_PATH, and exits with main's status.  Stdout is the
command's own output, unchanged.
"""

import json
import sys

from tracer import Tracer, load_modules


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    modules = load_modules()
    tracer = Tracer(span_cap=500)
    tracer.install(modules)
    try:
        status = modules["cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({"stats": tracer.stats, "spans": tracer.spans,
                       "dropped": tracer.dropped}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
