"""Each demo runs to the end in a fresh interpreter with ``src`` on the path,
exits 0 and prints the bytes pinned in ``demo_outputs.json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = json.loads((Path(__file__).parent / "demo_outputs.json").read_text())


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(PINNED) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == PINNED[demo.stem]
