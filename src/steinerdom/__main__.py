"""``python -m steinerdom``: run the CLI, flush the standard streams and
leave through ``os._exit``, which skips the interpreter's teardown (about
10 ms of CPU time per call, whatever its size).  The commands close every
file they write.  A profiler, tracer or coverage tool writes its results
during the normal exit, so with one attached the process exits normally.
"""

import os
import sys

from .cli import main


def _watched() -> bool:
    """Whether a profiler, tracer or coverage tool is attached."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    if _watched() or not isinstance(code, int):
        raise SystemExit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # main reports a closed stdout itself; output left unwritten here
        # (argparse's --help text) must not exit 0
        code = code or 1
    os._exit(code)
