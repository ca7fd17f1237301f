"""Every demo runs to completion against the package in src/; the package
root re-exports nothing (each name is imported from its own module); and
every test subprocess is started by runs.run_python."""

import re
from pathlib import Path

import pytest
from runs import run_python

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = run_python(str(ROOT / "demos" / demo), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_package_root_exports_nothing():
    code = "import stimamp; print(sorted(n for n in vars(stimamp) if not n.startswith('_')))"
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_subprocesses_start_only_in_runs():
    # So the -W error and timeout policy lives in one place.
    tests = Path(__file__).parent
    starts = re.compile(r"sys\.executable|subprocess\.run\(")
    assert [p.name for p in sorted(tests.glob("*.py")) if p.name != "runs.py" and starts.search(p.read_text())] == []
    assert starts.search((tests / "runs.py").read_text())
