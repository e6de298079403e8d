"""Packaging metadata: ``pyproject.toml`` names and versions the package."""

from __future__ import annotations

import os
import subprocess
import sys

from repro._version import __version__

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_setup_reads_name_and_version_from_pyproject():
    assert _setup("--name") == "repro"
    assert _setup("--version") == __version__
