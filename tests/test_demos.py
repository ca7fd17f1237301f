"""Every demo runs to completion against the package in src/, and the package
root re-exports nothing: each name is imported from its own module."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # -W error: pytest's "any warning fails" does not reach a subprocess.
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_package_root_exports_nothing():
    code = "import stimamp; print(sorted(n for n in vars(stimamp) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
