"""`python -m conesing`: run the CLI, which writes and flushes its
output, and end the process with os._exit, which skips the interpreter's
teardown (freeing every module and object; atexit hooks, which no
conesing module registers).  Under a tracer or a profiler the process
exits normally, so that cProfile prints its report and coverage saves
its data."""

import os
import sys

from .cli import main

code = main()
if sys.gettrace() is None and sys.getprofile() is None:
    try:
        sys.stderr.flush()
    finally:
        os._exit(code)
sys.exit(code)
