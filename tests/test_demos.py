"""Smoke test: every walkthrough under demos/ runs to the end, prints its
report and leaves no file behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _files(root):
    """Every file under root, skipping version control and bytecode caches."""
    return {
        os.path.join(d, f)
        for d, dirs, files in os.walk(root)
        if not (set(Path(d).relative_to(root).parts) & {".git", "__pycache__"})
        for f in files
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _files(ROOT)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert _files(ROOT) - before == set()
