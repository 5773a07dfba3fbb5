"""The CLI's bytes, pinned: every call of scripts/check_identity.py is run
again and compared with tests/golden_digests.json.

A change that means to alter an output regenerates the manifest with
``python3 scripts/check_identity.py --write-digests`` and says which calls
changed and why; the manifest's diff then shows every call that moved.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import check_identity  # noqa: E402

MANIFEST = json.loads(check_identity.MANIFEST.read_text())


def test_manifest_names_each_call_once():
    labels = [check_identity.label(argv, stdin) for argv, stdin in check_identity.calls()]
    assert len(set(labels)) == len(labels)
    assert list(MANIFEST["calls"]) == labels
    assert MANIFEST["run_token"] == check_identity.RUN_TOKEN.decode()


def test_every_call_writes_the_pinned_bytes():
    # argparse's usage errors, among others, are worded by the interpreter
    pinned = MANIFEST["python"].rsplit(".", 1)[0]
    if pinned != ".".join(platform.python_version_tuple()[:2]):
        pytest.skip(f"manifest written under Python {MANIFEST['python']}")
    got = check_identity.run_digests(ROOT, sys.executable)
    differ = [call for call, want in MANIFEST["calls"].items() if got.get(call) != want]
    assert not differ, "calls that differ from the manifest:\n" + "\n".join(differ)
