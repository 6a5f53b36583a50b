"""``python -m repro.cli`` with its import and its body timed apart.

The traced cli pass runs this under ``python -X importtime`` instead of
``-m repro.cli``: it imports ``repro.cli``, calls ``repro.cli.main`` with
the same arguments, and reports both durations on one stderr line, so
the import attribution and the CLI's own work come from one process.
"""

import json
import sys
import time

HARNESS_TAG = "layerbench-harness "

start = time.perf_counter()
import repro.cli  # noqa: E402

imported = time.perf_counter()
try:
    repro.cli.main(sys.argv[1:])
finally:
    done = time.perf_counter()
    timing = {"import_ms": (imported - start) * 1000.0, "body_ms": (done - imported) * 1000.0}
    print(HARNESS_TAG + json.dumps(timing), file=sys.stderr, flush=True)
