"""Subprocesses started by the tests (the CLI, the demos) import stimamp
from this checkout's src/, as the tests themselves do."""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Every property test draws the same examples on every run. The parent is the profile Hypothesis
# has loaded: on a CI host, its `ci` profile.
settings.register_profile("deterministic", settings.default, derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
