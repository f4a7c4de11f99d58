"""Every script in demos/ runs to completion against the source tree and
prints what its frozen transcript in fixtures/demos/ says.

After a deliberate change to a demo's output, refresh its transcript with
``PYTHONPATH=src python demos/<name>.py > tests/fixtures/demos/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = Path(__file__).resolve().parent / "fixtures" / "demos"


def test_demos_exist():
    assert DEMOS
    assert sorted(p.stem for p in TRANSCRIPTS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (TRANSCRIPTS / f"{script.stem}.txt").read_text()
