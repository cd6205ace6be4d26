"""Every example script runs to completion.

Each runs in its own interpreter, from an empty directory, and must exit
0.  ``live_sources_demo.py`` is left out: it paces real asyncio sources
for several wall-clock seconds and CI runs it as its own step.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(path for path in (REPO / "examples").glob("*.py")
                  if path.name != "live_sources_demo.py")


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
