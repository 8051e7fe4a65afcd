"""Smoke test: every demo script runs to completion on the standard
library alone: numpy is blocked in the child, so a demo that imports it
fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthotraj

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(orthotraj.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run_without_numpy = ("import runpy, sys; sys.modules['numpy'] = None; "
                         "runpy.run_path(sys.argv[1], run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", run_without_numpy, str(demo)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
