"""Run ``repro serve`` with the layer tracer installed.

Usage (from the repository root)::

    python perfbench/serve_traced.py TRACE_OUT serve --port 0 ...

Everything after ``TRACE_OUT`` is handed to the CLI unchanged.  SIGUSR1
opens the measurement window; SIGUSR2 closes it and writes the window's
wall seconds and per-layer accumulators to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402  (needs the path above)


def main(argv) -> int:
    out = Path(argv[0])
    tracer = layertrace.install(ROOT)
    window = {}

    def open_window(signum, frame):
        window["start"] = (time.perf_counter(), tracer.snapshot())

    def close_window(signum, frame):
        started, before = window["start"]
        payload = {
            "wall_s": time.perf_counter() - started,
            "delta": layertrace.delta(before, tracer.snapshot()),
            "entries": tracer.entries,
        }
        partial = out.with_name(out.name + ".part")
        partial.write_text(json.dumps(payload))
        partial.replace(out)

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    from repro.cli.main import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
