"""The fast examples run end to end as scripts.

The examples call the public API the way a user would (``animal_tracking``
wires the stack by hand and drives ``sim.run`` itself), so an API change
that breaks them fails here.  Only the two that finish in a few seconds
run in tier-1; ``density_study``, ``failure_robustness``, ``multi_sink``
and ``aggregation_functions`` take 7-36 s each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["animal_tracking.py", "quickstart.py"])
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
