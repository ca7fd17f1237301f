import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from runs import run_python

from stimamp import cli
from stimamp.cli import build_parser, main, parse_angle
from stimamp.closed_form import ProbabilityTriple

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = None
if jsonschema is not None:
    import importlib.resources

    SCHEMA_PATH = importlib.resources.files("stimamp") / "schemas" / "output.schema.json"


def run_cli(*args):
    return run_python("-m", "stimamp", *args)


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_oracle_mismatch_writes_the_document_then_exits_1(self, fmt, monkeypatch, capsys):
        oracle = cli.first_principles_probs

        def shifted(theta, variant):
            t = oracle(theta, variant)
            return ProbabilityTriple(t.p20 + 1e-6, t.p11 - 1e-6, t.p02)

        monkeypatch.setattr(cli, "first_principles_probs", shifted)
        assert main(["probs", "--theta", "pi/8", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        if fmt == "json":
            row = json.loads(out)["rows"][0]
        else:
            header, values = [line for line in out.splitlines() if not line.startswith("#")]
            row = dict(zip(header.split(","), values.split(",")))
            assert out.endswith(values + "\n")
        assert float(row["max_discrepancy"]) == pytest.approx(1e-6, rel=1e-6)
        assert err == "error: closed form and projection oracle disagree\n"


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

    @pytest.mark.parametrize("flag", [["--out", ""], ["--out="]])
    def test_empty_out_path_exits_2(self, flag):
        # An empty --out used to fall through to stdout and exit 0.
        proc = run_cli("sweep", *flag)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert [line for line in proc.stderr.splitlines() if b"error:" in line] == [
            b"stimamp sweep: error: argument --out: PATH must not be empty"
        ]

    def test_unwritable_path_exits_3(self):
        proc = run_cli("sweep", "--out", "/nonexistent-dir/x.csv")
        assert proc.returncode == 3

    def test_csv_memory_does_not_grow_with_steps(self):
        # The rows are computed and written one at a time; a whole
        # document of 5e4 rows held as text or row dicts is ~30 MiB.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["sweep", "--steps", "50000", "--format", "csv"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_json_memory_does_not_grow_with_steps(self):
        # JSON is written row by row too; the whole document of 5e4 rows,
        # as row dicts and then as text, peaks near 70 MiB.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["sweep", "--steps", "50000", "--format", "json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20


# The values a CLI document holds: floats (signed zeros, subnormals, NaN and
# the infinities included), ints of any size, bools, None, and strings.
json_scalars = st.one_of(
    st.floats(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(st.characters(max_codepoint=127)),
)


@st.composite
def cli_documents(draw):
    """The shape emit builds: parameters (a list among them, as --u), maybe a summary, then rows."""
    parameters = draw(st.dictionaries(st.text(), json_scalars | st.lists(st.floats(), max_size=4), max_size=6))
    doc = {"schema_version": "1", "command": draw(st.text()), "parameters": parameters}
    if draw(st.booleans()):
        doc["summary"] = draw(st.dictionaries(st.text(), json_scalars, max_size=4))
    keys = draw(st.lists(st.text(), unique=True, max_size=6))
    rows = draw(st.lists(st.lists(json_scalars, min_size=len(keys), max_size=len(keys)), max_size=20))
    doc["rows"] = [dict(zip(keys, values)) for values in rows]
    return doc


# Every kind of cell json.dumps spells its own way, a float subclass as probs' oracle
# columns hold, and a key and a text with %-format and escape characters.
SPECIAL_ROW = {
    "zero": 0.0,
    "oracle": np.float64(0.1),
    "minus_zero": -0.0,
    "subnormal": 5e-324,
    "nan": math.nan,
    "inf": math.inf,
    "minus_inf": -math.inf,
    "big": 2**100,
    "flag": True,
    "off": False,
    "none": None,
    "ascii": "identical",
    "text": 'é\u2028"%s\\',
    "%d": 1,
}
SPECIAL_DOC = {"schema_version": "1", "command": "causality-scan", "parameters": {"u": [2.0, 1e300], "L": 1.0}}


@pytest.mark.byte_identity
@settings(max_examples=300)
@given(cli_documents())
@example({**SPECIAL_DOC, "rows": []})
@example({**SPECIAL_DOC, "rows": [SPECIAL_ROW]})
@example({**SPECIAL_DOC, "summary": {"error_rate": 0.5}, "rows": [SPECIAL_ROW] * 3})
@example({**SPECIAL_DOC, "rows": [{}, {}]})
@example({**SPECIAL_DOC, "rows": [{"a": 1}, {"b": 2.0, "c": None}]})
@example({**SPECIAL_DOC, "rows": [{"a": 1}, {}, {"a": 2}]})
def test_json_writer_is_json_dumps(doc):
    out = io.StringIO()
    cli.render({**doc, "rows": iter(doc["rows"])}, "json", out)  # read once, as it writes
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.byte_identity
def test_json_writer_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    doc = {**SPECIAL_DOC, "rows": [SPECIAL_ROW] * 3 + [{}]}
    out = io.StringIO()
    cli.render(doc, "json", out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_json_writer_rejects_what_json_dumps_rejects():
    doc = {"schema_version": "1", "command": "probs", "parameters": {}, "rows": [{"n": np.int64(3)}]}
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        cli.render(doc, "json", io.StringIO())


def probs_to(stdout, buffering):
    """Run `stimamp probs --theta 0` with the given stdout fd, buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return run_python("-m", "stimamp", "probs", "--theta", "0", stdout=stdout, stderr=subprocess.PIPE, env=env)


def assert_clean_write_error(proc):
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"error: cannot write"), proc.stderr
    assert proc.stderr.count(b"\n") == 1, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


# Buffered stdout (the default for a pipe or a file) still holds the
# document when the write fails, and Python flushes it again at exit.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_full_disk_on_stdout_exits_3(buffering):
    with open("/dev/full", "wb") as full:
        proc = probs_to(full, buffering)
    assert_clean_write_error(proc)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_closed_pipe_on_stdout_exits_3(buffering):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = probs_to(write_end, buffering)
    finally:
        os.close(write_end)
    assert_clean_write_error(proc)


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


@pytest.mark.parametrize(
    "value,cell",
    [
        (True, "true"),
        (False, "false"),
        (None, ""),
        (3, "3"),
        (np.int64(3), "3"),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        ("identical", "identical"),
    ],
)
def test_csv_cell_format(value, cell):
    # _fmt tests float before bool: a bool is an int, never a float.
    assert cli._fmt(value) == cell


@pytest.mark.byte_identity
@settings(max_examples=500)
@given(st.floats())  # NaN payloads, the infinities and subnormals included
@example(-math.nan)
@example(-5e-324)
@example(np.float64(-1e-310))
def test_csv_float_cell_is_format_17g(value):
    assert cli._fmt(value) == format(value, ".17g")


def test_main_callable_in_process(capsys):
    assert main(["probs", "--theta", "0", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema_version=1")
    assert "theta_rad,variant,p20" in out
    # argparse's exits come back as exit codes, not as SystemExit.
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: stimamp") and err == ""
    assert main(["probs"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: stimamp probs")
    assert "the following arguments are required: --theta" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_commands(capsys):
    # The flags of one command (a rejected literal, --format csv, --seed 7)
    # must not leak into the next one parsed by the same parser.
    assert main(["mc", "--theta", "bogus", "--seed", "7", "--format", "csv"]) == 2
    assert capsys.readouterr().out == ""
    commands = [
        ["mc", "--theta", "0.3", "-n", "1000", "--seed", "7", "--format", "csv"],
        ["probs", "--theta", "pi/8"],
        ["mc", "--theta", "0.3", "-n", "1000"],
        ["causality-scan", "--u", "1.5", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0
        alone = run_cli(*argv)
        assert alone.returncode == 0
        assert capsys.readouterr().out.encode() == alone.stdout, argv


# Beyond |theta| <= 2^20, including angles whose double overflows in the
# closed forms (~9e307), two opposite ones near the top of the range, and
# every angle flag at a non-finite value.
ANGLE_ERRORS = [
    "probs --theta 1e8 --variant identical",
    "probs --theta 1e308",
    "mc --theta=-1e7 -n 10",
    "sweep --theta-max 1e308",
    "sweep --theta-min=-1e308 --theta-max 1e308",
    "protocol --bits 01 --pairs-per-bit 10 --theta-bit1 1e9",
    "protocol --bits 01 --theta-bit0 1.7e308 --theta-bit1=-1.7e308",
    # Non-finite angles reach the same check: the parser only reads the literal.
    "mc --theta nan -n 10",
    "mc --theta inf -n 10",
    "probs --theta inf",
    "probs --theta nan",
    "probs --theta=-inf",
    "probs --theta 1e999",
    "sweep --theta-max inf",
    "sweep --theta-min=-inf",
    "sweep --theta-min nan",  # an angle error, not theta_min must be < theta_max
    "protocol --bits 01 --theta-bit0 nan",
    "protocol --bits 01 --pairs-per-bit 10 --theta-bit1 inf",
]

# A value that starts with "-" and is not a plain decimal needs the "=" form,
# or argparse reads it as an option.
NEGATIVE_SPEEDS = [
    "causality-scan --u=-inf",
    "causality --u=-1e-300 --beta 0.5",
]

# Rejected by ProtocolConfig or monte_carlo_probs, with a message that names the seed.
NEGATIVE_SEEDS = [
    "protocol --bits 01 --pairs-per-bit 10 --seed -1",
    "protocol --bits 01 --seed=-1",
    "mc --theta 0 -n 10 --seed -1",
    "mc --theta 0 -n 10 --seed=-1",
]

# Counts past their one maximum, 2**63 - 1; int(n / 0.7) and the sweep's step raised OverflowError.
COUNT_ERRORS = {
    "n": f"mc --theta 0 -n {10**400}",
    "pairs_per_bit": f"protocol --bits 01 --pairs-per-bit {10**400}",
    "steps": f"sweep --steps {10**400}",
}

USAGE_ERRORS = [
    "probs --theta pi/0",
    "causality --u nan --beta 0.5",
    "causality --u inf --beta 0.5",
    "causality --u 2 --beta nan",
    "causality --u 2 --beta 0.5 -L inf",
    "causality-scan --u nan",
    "causality-scan --u inf",
    "causality-scan --u 0.5 -L nan",
    "causality-scan --u 2 -L 0",
    "causality-scan --u 2 -L=-1",
    "causality-scan --u 2 -L inf",
    "causality-scan --u 2 -L=-inf",
    "sweep --steps 1",
    "mc --theta 0 -n 0",
    "protocol --bits 012",
    "protocol --seed 1 --theta-bit1=-pi/8 --theta-bit0 pi/8 --pairs-per-bit 20 --bits 0110",  # mirror symbols
    "causality-scan --u 0 2",
    "causality --u 2 --beta 1.0",
    "causality --u 2 --beta 0.5 -L 1e308 --ell 1e308",  # loop coordinates overflow
    *ANGLE_ERRORS,
    *NEGATIVE_SPEEDS,
    *NEGATIVE_SEEDS,
    *(pytest.param(command, id=f"{name}-10**400") for name, command in COUNT_ERRORS.items()),
]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_exits_2_cleanly(command, capsys):
    assert main(shlex.split(command)) == 2  # argparse's rejections included
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(("usage:", "error:")), err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "speeds,L",
    [
        ("1.01 1.5", "1.7e308"),  # the loop's coordinates would overflow
        ("2 1.01 1e9", "5e-324"),  # its round-trip time would underflow to 0
    ],
)
def test_scan_thresholds_do_not_depend_on_L(speeds, L, capsys):
    # The same document as at L = 1, but for the "# L=" parameter line.
    docs = []
    for length in ("1", L):
        assert main(["causality-scan", "--u", *speeds.split(), "-L", length, "--format", "csv"]) == 0
        docs.append([line for line in capsys.readouterr().out.splitlines() if not line.startswith("# L=")])
    assert docs[0] == docs[1]


THRESHOLD_BITS = json.loads((Path(__file__).with_name("threshold_bits.json")).read_text())

# Unit, tiny and subnormal lengths, and lengths near the top of the double
# range, where L/u overflows or L/(1 + u) rounds to infinity.
SCAN_LENGTHS = [
    float.fromhex(h)
    for h in (
        "0x1.0000000000000p+0", "0x1.8000000000000p+1", "0x1.56e1fc2f8f359p-997",
        "0x0.0000000000001p-1022", "0x1.140bc741d1ecap+975", "0x1.9a579923403b6p+1002",
        "0x1.0431d671666c4p+1019", "0x1.c7b1f3cac7433p+1019", "0x1.d129439bb438fp+1021",
        "0x1.e170d0060db07p+1022", "0x1.eb1b2499e1790p+1020", "0x1.005419221015dp+1023",
        "0x1.55c576d815726p+1023", "0x1.fdcf158adbb99p+1023",
    )
]


@pytest.mark.parametrize("L", SCAN_LENGTHS, ids=float.hex)
def test_scan_prints_the_recorded_thresholds_at_every_length(L, capsys):
    # Every recorded speed at once: the rows are the bit-lock's one threshold row.
    speeds = [repr(float.fromhex(h)) for h in THRESHOLD_BITS["u"]]
    assert main(["causality-scan", "--u", *speeds, "-L", repr(L)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["L"] == L
    thresholds = [row["threshold_beta"] for row in doc["rows"]]
    assert [None if beta is None else beta.hex() for beta in thresholds] == THRESHOLD_BITS["threshold"]


@pytest.mark.parametrize("name", COUNT_ERRORS)
def test_count_beyond_the_maximum_is_one_error_line(name, capsys):
    assert main(shlex.split(COUNT_ERRORS[name])) == 2
    assert capsys.readouterr() == ("", f"error: {name} must be an integer <= {2**63 - 1}\n")


@pytest.mark.parametrize("command", NEGATIVE_SPEEDS)
def test_negative_speed_reaches_the_speed_check(command, capsys):
    assert main(shlex.split(command)) == 2
    assert capsys.readouterr().err == "error: u must be positive and finite\n"


@pytest.mark.parametrize("command", NEGATIVE_SEEDS)
def test_negative_seed_names_the_seed(command, capsys):
    assert main(shlex.split(command)) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0\n"


def test_loop_overflow_names_u(capsys):
    # L/u overflows at the default L = 1: the speed, not a length, is at fault.
    assert main(["causality", "--u", "1e-310", "--beta", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: loop coordinates overflow: L or ell is too large, or u is too small or too close to beta\n"


# gamma(beta) * (u - beta) overflows: the return leg would take no time, so
# the loop would never violate and the scan would print no threshold.
RETURN_LEG_OVERFLOWS = [
    "causality --u 1e307 --beta 0.999",
    "causality --u 1e308 --beta 0.9",
    "causality --u 1.7e308 --beta 0.5",
    "causality-scan --u 1e301",
]


@pytest.mark.parametrize("command", RETURN_LEG_OVERFLOWS)
def test_return_leg_overflow_names_u(command, capsys):
    assert main(shlex.split(command)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    u = float(shlex.split(command)[2])
    assert err.startswith(f"error: loop coordinates overflow: u = {u!r} is too large for beta = "), err


# L/u, or the return leg's S' time tau, underflows to 0 though the leg has
# positive length: the loop would close with delta_t = 0 and never violate.
LEG_UNDERFLOWS = [
    "causality --u 2 --beta 0.9 -L 5e-324",
    "causality --u 1e300 --beta 0.9 -L 1e-300",
    "causality --u 2 --beta 0.999999999999999 -L 5e-320",  # tau alone underflows
]


@pytest.mark.parametrize("command", LEG_UNDERFLOWS)
def test_leg_underflow_names_L(command, capsys):
    assert main(shlex.split(command)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    argv = shlex.split(command)
    L = float(argv[argv.index("-L") + 1])
    assert err.startswith(f"error: loop coordinates underflow: L = {L!r} is too small for u = "), err


@pytest.mark.parametrize(
    "command,delta_t,violated",
    [
        ("causality --u 2 --beta 0.9 -L 1e-320", -2.273e-321, True),  # subnormal legs, none lost
        ("causality --u 2 --beta 0.9 -L 1e-20 --ell 1", 2.0, False),  # L is below ell's ulp: 2 ell is right
    ],
)
def test_tiny_legs_that_do_not_underflow_still_run(command, delta_t, violated, capsys):
    assert main(shlex.split(command)) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["delta_t"], row["violated"]) == (delta_t, violated)


@pytest.mark.parametrize("command", ANGLE_ERRORS)
def test_angle_error_names_theta(command):
    # A subprocess: stderr as a user sees it, numpy warnings included.
    proc = run_cli(*shlex.split(command))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: theta must satisfy |theta| <= 2**20"), proc.stderr
    assert b"Warning" not in proc.stderr


def test_readme_examples_run(tmp_path):
    # Every `stimamp` line of the README's CLI section runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("stimamp ")]
    assert len(lines) == 7
    for k, line in enumerate(lines):
        out = tmp_path / f"example{k}"
        assert main([*shlex.split(line)[1:], "--out", str(out)]) == 0, line
        assert out.stat().st_size > 0, line
