import json
import shlex
import subprocess
import sys

import numpy as np
import pytest

from stimamp.cli import main, parse_angle

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = None
if jsonschema is not None:
    import importlib.resources

    SCHEMA_PATH = importlib.resources.files("stimamp") / "schemas" / "output.schema.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stimamp", *args], capture_output=True, text=False
    )


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestAngleLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5", 0.5),
            ("pi", np.pi),
            ("pi/8", np.pi / 8),
            ("3pi/4", 3 * np.pi / 4),
            ("-pi/2", -np.pi / 2),
            ("2pi", 2 * np.pi),
        ],
    )
    def test_parse(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_angle("bogus")


class TestProbs:
    def test_values(self):
        doc = run_json("probs", "--theta", "0", "--variant", "distinguishable")
        row = doc["rows"][0]
        assert row["p20"] == pytest.approx(2 / 3, abs=1e-12)
        assert row["max_discrepancy"] < 1e-12

    def test_identical_quarter_pi(self):
        doc = run_json("probs", "--theta", "pi/4", "--variant", "identical")
        assert doc["rows"][0]["p20"] == pytest.approx(0.0, abs=1e-12)

    def test_bad_angle_exits_2(self):
        assert run_cli("probs", "--theta", "bogus").returncode == 2


class TestSweep:
    def test_rows(self):
        doc = run_json("sweep", "--steps", "9")
        assert len(doc["rows"]) == 9
        assert doc["rows"][0]["p20"] == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_steps_exits_2(self):
        assert run_cli("sweep", "--steps", "1").returncode == 2

    def test_file_output_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            proc = run_cli("sweep", "--steps", "5", "--format", "csv", "--out", str(path))
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_3(self):
        proc = run_cli("sweep", "--out", "/nonexistent-dir/x.csv")
        assert proc.returncode == 3


class TestMc:
    def test_convergence_and_determinism(self):
        args = ("mc", "--theta", "0", "-n", "1000000", "--seed", "42")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        row = json.loads(first.stdout)["rows"][0]
        assert abs(row["p20_hat"] - 2 / 3) < 3e-3
        assert row["total"] == 10**6

    def test_zero_draws_exits_2(self):
        assert run_cli("mc", "--theta", "0", "-n", "0").returncode == 2


class TestProtocol:
    def test_clean_transmission(self):
        doc = run_json("protocol", "--bits", "0110", "--seed", "7")
        assert doc["summary"]["error_rate"] == 0.0
        assert [r["decoded"] for r in doc["rows"]] == [0, 1, 1, 0]
        assert doc["summary"]["gap_bit1"] == pytest.approx(-1 / 3, abs=1e-12)

    def test_empty_bits_exits_2(self):
        assert run_cli("protocol", "--bits", "").returncode == 2

    def test_degenerate_symbols_exit_2(self):
        proc = run_cli("protocol", "--bits", "01", "--theta-bit1", "pi/2")
        assert proc.returncode == 2


class TestCausality:
    def test_violation(self):
        doc = run_json("causality", "--u", "2", "--beta", "0.9")
        assert doc["rows"][0]["violated"] is True

    def test_scan_threshold(self):
        doc = run_json("causality-scan", "--u", "2", "5")
        rows = {r["u"]: r["threshold_beta"] for r in doc["rows"]}
        assert rows[2] == pytest.approx(0.8, abs=1e-6)
        assert rows[5] == pytest.approx(10 / 26, abs=1e-6)

    def test_scan_subluminal_null(self):
        doc = run_json("causality-scan", "--u", "1")
        assert doc["rows"][0]["threshold_beta"] is None

    def test_invalid_beta_exits_2(self):
        assert run_cli("causality", "--u", "2", "--beta", "1.0").returncode == 2


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
class TestSchema:
    def test_documents_validate(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        for args in (
            ("probs", "--theta", "pi/8"),
            ("sweep", "--steps", "3"),
            ("mc", "--theta", "0", "-n", "100", "--seed", "1"),
            ("protocol", "--bits", "01", "--pairs-per-bit", "100"),
            ("causality", "--u", "2", "--beta", "0.5"),
            ("causality-scan", "--u", "1.5", "2"),
        ):
            jsonschema.validate(run_json(*args), schema)


def test_main_callable_in_process(capsys):
    assert main(["probs", "--theta", "0", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema_version=1")
    assert "theta_rad,variant,p20" in out


# Beyond |theta| <= 2^20, including angles whose double overflows in the
# closed forms (~9e307) or in a difference of two angles.
ANGLE_ERRORS = [
    "probs --theta 1e8 --variant identical",
    "probs --theta 1e308",
    "mc --theta=-1e7 -n 10",
    "sweep --theta-max 1e308",
    "sweep --theta-min=-1e308 --theta-max 1e308",
    "protocol --bits 01 --pairs-per-bit 10 --theta-bit1 1e9",
    "protocol --bits 01 --theta-bit0 1.7e308 --theta-bit1=-1.7e308",
]

USAGE_ERRORS = [
    "mc --theta nan -n 10",
    "mc --theta inf -n 10",
    "probs --theta inf",
    "probs --theta nan",
    "probs --theta=-inf",
    "probs --theta pi/0",
    "sweep --theta-max inf",
    "sweep --theta-min nan",
    "protocol --bits 01 --theta-bit0 nan",
    "causality --u nan --beta 0.5",
    "causality --u inf --beta 0.5",
    "causality --u 2 --beta nan",
    "causality --u 2 --beta 0.5 -L inf",
    "causality-scan --u nan",
    "causality-scan --u inf",
    "causality-scan --u 0.5 -L nan",
    "mc --theta 0 -n 10 --seed -1",
    "protocol --bits 01 --pairs-per-bit 10 --seed -1",
    "sweep --steps 1",
    "mc --theta 0 -n 0",
    "protocol --bits 012",
    "causality-scan --u 0 2",
    "causality --u 2 --beta 1.0",
    *ANGLE_ERRORS,
]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_exits_2_cleanly(command, capsys):
    try:
        code = main(shlex.split(command))
    except SystemExit as exc:  # argparse rejects the literal itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(("usage:", "error:")), err
    assert "Warning" not in err


@pytest.mark.parametrize("command", ANGLE_ERRORS)
def test_angle_error_names_theta(command):
    # A subprocess: stderr as a user sees it, numpy warnings included.
    proc = run_cli(*shlex.split(command))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: theta must satisfy |theta| <= 2**20"), proc.stderr
    assert b"Warning" not in proc.stderr
