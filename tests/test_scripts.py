"""Smoke runs of the scripts under ``scripts/``, each in its own process."""

import hashlib
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parents[1]

#: SHA-256 of ``scripts/walkthrough.py`` stdout, pinned from a reference run.
WALKTHROUGH_SHA256 = (
    "760d60f01854bbd98adf2edf4e0d3bf85a6224b69612bcae9275e8a8c62281f6"
)


def run_script(name, *argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_walkthrough_stdout():
    result = run_script("walkthrough.py")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == WALKTHROUGH_SHA256


def test_run_verification_passes():
    result = run_script("run_verification.py", "--cases", "8", "--depth", "3")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
