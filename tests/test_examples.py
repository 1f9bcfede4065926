"""Every example imports, and the fast ones run end to end as scripts.

The examples call the public API the way a user would (``animal_tracking``
wires the stack by hand and drives ``sim.run`` itself), so an API change
that breaks them fails here.  Each script guards ``main()``, so importing
it checks every name it imports without running it.  Only the two that
finish in a few seconds run in tier-1; ``density_study``,
``failure_robustness``, ``multi_sink`` and ``aggregation_functions`` take
7-36 s each.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


def test_all_six_examples_are_checked():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_imports(script):
    spec = importlib.util.spec_from_file_location(
        f"example_{script[:-3]}", ROOT / "examples" / script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


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
