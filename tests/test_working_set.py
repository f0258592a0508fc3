"""Peak memory of long CLI runs grows only by what the runs keep."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preydelay
from working_set import CASES

HERE = Path(__file__).resolve().parent
SRC = Path(preydelay.__file__).resolve().parents[1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_peak_rss_growth_stays_in_budget(case):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, str(HERE / "working_set.py"), case],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, f"{run.stdout}{run.stderr}"
