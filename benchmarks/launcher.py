"""`python -m powerfib`, traced: the child process of a traced `cli` request.

Usage: launcher.py <powerfib arguments>, with powerfib importable and
BENCH_TRACE_FILE naming the file that receives the per-layer summary.
"""

import json
import os
import sys

import tracer

t = tracer.install()
from powerfib import cli  # noqa: E402  (after install, so main is the wrapper)

sys.stdout = tracer.CountingWriter(t, sys.stdout)
try:
    code = cli.main(sys.argv[1:])
finally:
    with open(os.environ["BENCH_TRACE_FILE"], "w") as fh:
        json.dump(t.summary(), fh)
raise SystemExit(code)
