"""CI glue: doctests and example scripts stay runnable.

Wired into the tier-1 entry point (plain ``pytest``): a nested
``pytest --doctest-modules`` pass over the package front door and the
sweep package (whose docstrings double as the quickstart docs), plus a
smoke run of every ``examples/*.py`` script — so the README's first
commands can never rot silently.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_doctest_modules_pass():
    """`pytest --doctest-modules` over repro/__init__.py and repro.sweep."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--doctest-modules", "-q",
         "-p", "no:cacheprovider",
         str(SRC / "repro" / "__init__.py"),
         str(SRC / "repro" / "sweep")],
        cwd=REPO, env=_env(), text=True, capture_output=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "passed" in proc.stdout


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (REPO / "examples").glob("*.py")))
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=REPO, env=_env(), text=True, capture_output=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "quickstart.py":
        assert "bubble ratio" in proc.stdout
        assert "versus the baselines" in proc.stdout


def test_sweep_cli_help_lists_command():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        cwd=REPO, env=_env(), text=True, capture_output=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
