"""Subprocesses started by the tests (the CLI, the demos) import stimamp
from this checkout's src/, as the tests themselves do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
