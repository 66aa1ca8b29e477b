"""Run the k3fm command line in this process with every traced layer wrapped.

Used instead of `python -m k3fm` by the traced cli-session run.  It times
the import of k3fm.cli before any wrapper exists, installs the wrappers,
runs the command with this process's arguments, and writes the per-layer
counts and self times to the file named by K3FM_BENCH_TRACE.  Output and
exit status are those of `python -m k3fm`.
"""

import json
import os
import sys
from pathlib import Path
from time import perf_counter_ns

start = perf_counter_ns()
import k3fm.cli  # noqa: E402

import_ns = perf_counter_ns() - start

from tracing import IMPORT_LAYER, Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    status = k3fm.cli.main()
finally:
    layers = tracer.take()
    layers[IMPORT_LAYER] = (1, import_ns)
    Path(os.environ["K3FM_BENCH_TRACE"]).write_text(json.dumps(layers))
sys.exit(status)
