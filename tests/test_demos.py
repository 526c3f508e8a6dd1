"""Every walkthrough in ``demos/`` runs to completion.

Each demo runs as a fresh process with the package's source directory on
``PYTHONPATH`` and a temporary working directory, so a demo that wrote files
would leave them there rather than in the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swati

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    src = str(Path(swati.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
