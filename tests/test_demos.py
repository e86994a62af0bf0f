"""Each demo prints exactly its pinned output.

The demos' outputs are deterministic, so a change to any value type's text,
or to a result a demo prints, shows here as a diff against
``tests/demo_output/<demo>.txt``.  After a deliberate change, rewrite a file
with ``PYTHONPATH=src python -W error demos/<demo>.py > tests/demo_output/<demo>.txt``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                         capture_output=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_bytes()
