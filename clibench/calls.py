"""Child processes of a run: spawning, timing and counting failures."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Call, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DEADLINE_S = 165  # a run must exit within 180 s
# Wall time of reference.py on an idle 2-CPU x86-64 machine with Python 3.11;
# only the unit of the scaled times depends on it.
REFERENCE_S = 0.35


@dataclass
class CallResult:
    wall_s: float
    exit_code: int | None  # None: killed at the deadline
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Ledger:
    """Attempted and failed calls of one run, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passed: set[tuple[str, str]] = set()  # (input hash, output hash)

    def record(self, call: Call, exit_code: int | None, stdout: bytes, stderr: bytes = b"") -> bool:
        self.attempted += 1
        if exit_code is None:
            error = "timed out"
        elif exit_code != call.expect_exit:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            error = f"exit {exit_code}, expected {call.expect_exit} {tail}"
        elif call.key is not None and (call.key, sha256(stdout)) in self.passed:
            error = None
        else:
            error = call.check(stdout)
            if error is None and call.key is not None:
                self.passed.add((call.key, sha256(stdout)))
        if error is None:
            return True
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{call.label}: {error}")
        return False


class Spawner:
    """Runs ``python <args>`` children through ``spawner.py``; see there why."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str], work: Path, deadline: float) -> CallResult:
        """Wait for one child; it is killed once the run deadline passes."""
        out_path, err_path = work / "stdout", work / "stderr"
        request = {"argv": [sys.executable, *args], "cwd": str(work), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        reply = json.loads(line)
        return CallResult(reply["wall_s"], None if reply["killed"] else reply["status"],
                          reply["maxrss_kb"] / 1024, out_path.read_bytes(), err_path.read_bytes())

    def call(self, call: Call, work: Path, deadline: float) -> CallResult:
        return self.run(["-m", "steinerdom", *call.argv], work, deadline)

    def speed(self, work: Path, deadline: float) -> float:
        """How much slower than nominal the machine runs ``reference.py`` now."""
        res = self.run([str(HERE / "reference.py")], work, deadline)
        if res.exit_code != 0:
            raise RuntimeError(f"reference.py failed: {res.stderr.decode(errors='replace')}")
        return res.wall_s / REFERENCE_S


def fresh_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
