"""Run one gleason-lab CLI call under the benchmark's tracer.

Usage: python cli_wrapper.py TRACE_FILE SUBCOMMAND [ARGS...]

Times the import of ``gleason_lab.cli``, installs the tracing hook,
calls ``gleason_lab.cli.main(argv)`` and writes the per-layer totals and
the import time to TRACE_FILE as JSON. Exits with the call's exit code.
"""

import json
import sys
import time


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gleason_lab.cli
    import_ms = (time.perf_counter() - t0) * 1e3

    from tracer import Tracer

    tracer = Tracer()
    tracer.start()
    try:
        code = gleason_lab.cli.main(argv)
    finally:
        tracer.stop()
        sys.stdout.flush()
        with open(trace_file, "w") as handle:
            json.dump({"import_ms": import_ms, "layers": tracer.layer_metrics()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
