"""Spawn the benchmark's child processes on request and report their cost.

The benchmark process grows large while it builds and checks inputs.  A
child spawned from it would report that size as its own ``ru_maxrss``,
because Linux folds the high-water mark of the memory map a process had
before ``exec`` into it.  This small process is started before any input
exists and spawns every call instead.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout,
``{"wall_s": ..., "status": ..., "maxrss_kb": ..., "killed": ...}``, where
``wall_s`` runs from spawn to exit and ``status`` is the exit code.  The
process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    killed = []
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])

        def kill() -> None:
            killed.append(True)
            proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "killed": bool(killed)}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
