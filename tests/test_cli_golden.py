"""Golden corpus: sha256 of stdout and the exit code of fixed CLI commands.

`cli_golden.json` pins what each command prints, byte for byte, so a
refactor that moves a single printed digit fails here.  Re-record only
after a deliberate output change, from the root of a checkout:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest
from runs import run_main

pytestmark = pytest.mark.byte_identity

GOLDEN = Path(__file__).with_name("cli_golden.json")
VARIANTS = ("distinguishable", "identical")
FORMATS = ("json", "csv")
ANGLES = ("0", "pi/8", "pi/4", "3pi/4", "-pi/2", "0.3", "-2.7", "100", "1e-300")


def corpus() -> list[str]:
    cmds = []
    for v in VARIANTS:
        for f in FORMATS:
            tail = f"--variant {v} --format {f}"
            cmds += [f"probs --theta={theta} {tail}" for theta in ANGLES]
            cmds += [
                f"sweep {tail}",
                f"sweep --theta-min=-2.7 --theta-max 100 --steps 7 {tail}",
                f"sweep --theta-min 1e-300 --theta-max pi/4 --steps 2 {tail}",
            ]
            cmds += [f"mc --theta 0.3 -n {n} --seed 42 {tail}" for n in (1, 7, 1000, 300001)]
            cmds += [
                f"protocol --bits 01101001 --pairs-per-bit 100 --seed 7 {tail}",
                f"protocol --bits 10 --pairs-per-bit 50 --theta-bit0=-2.7 --theta-bit1 100 {tail}",
            ]
        for theta in ("pi/4", "-2.7", "100", "1e-300"):
            cmds.append(f"mc --theta={theta} -n 1000 --seed 0 --variant {v}")
        cmds.append(f"protocol --bits 01 --variant {v}")
    for f in FORMATS:
        cmds += [
            f"causality --u 2 --beta 0.9 --format {f}",
            f"causality --u 2 --beta 0.5 -L 3 --ell 0.5 --format {f}",
            f"causality --u 0.5 --beta 0.3 --format {f}",
            f"causality-scan --u 1.5 2 5 10 --format {f}",
            f"causality-scan --u 1 1e6 0.5 --format {f}",
            # Every flag left at its default or given out of order: the
            # parameters block must still follow the parser's order.
            f"causality-scan --u 2 5 -L 3 --format {f}",
            f"causality --ell 0.25 --beta 0.2 --u 3 --format {f}",
            f"mc --theta 0.3 -n 5 --format {f}",
            f"mc --seed 3 -n 5 --variant identical --theta=-pi/8 --format {f}",
            f"sweep --steps 3 --theta-max 3pi/8 --theta-min pi/8 --format {f}",
            f"protocol --seed 1 --theta-bit1=-pi/8 --theta-bit0 pi/8 --pairs-per-bit 20 --bits 0110 --format {f}",
            f"protocol --seed 1 --theta-bit1=-pi/8 --theta-bit0 pi/4 --pairs-per-bit 20 --bits 0110 --format {f}",
            f"probs --format {f} --variant identical --theta 3pi/4",
        ]
    # Usage and I/O errors: nothing on stdout.
    cmds += [
        "",
        "probs",
        "probs --theta bogus",
        "probs --theta -pi/8",
        "probs --theta 0 --variant bogus",
        "sweep --steps 1",
        "sweep --theta-min 1 --theta-max 0",
        "sweep --out /nonexistent-dir/x.csv",
        "mc --theta 0 -n 0",
        "mc --theta 0 -n -5",
        "protocol --bits ''",
        "protocol --bits 012",
        "protocol --bits 01 --theta-bit1 pi/2",
        "protocol --bits 01 --pairs-per-bit 0",
        "causality --u 2 --beta 1.0",
        "causality --u 0.5 --beta 0.7",
        "causality --u -1 --beta 0.5",
        "causality-scan --u 0 2",
        "causality-scan --u=-1",
    ]
    return cmds


def run(command: str) -> tuple[str, int]:
    """sha256 of stdout and the exit code of one in-process CLI call."""
    code, out, _ = run_main(shlex.split(command))
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.fixture(scope="module")
def recording() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_recording(recording):
    assert sorted(recording) == sorted(corpus())


@pytest.mark.parametrize("command", corpus())
def test_stdout_and_exit_code(command, recording):
    assert list(run(command)) == recording[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c) for c in corpus()}, indent=1) + "\n")
