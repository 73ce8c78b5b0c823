"""`python -m conesing`: run the CLI, flush its output, and end the
process with os._exit, which skips the interpreter's teardown (freeing
every module and object; atexit hooks, which no conesing module
registers).  Under a tracer or a profiler the process exits normally,
so that cProfile prints its report and coverage saves its data."""

import os
import sys

from .cli import main, write_failed

code = main()
try:
    sys.stdout.flush()
except OSError as exc:
    code = write_failed(exc)
if sys.gettrace() is None and sys.getprofile() is None:
    try:
        sys.stderr.flush()
    finally:
        os._exit(code)
sys.exit(code)
