"""The two ways the tests run stimamp: `cli.main` in this process, and a
Python subprocess under the one policy that every test subprocess keeps."""

import contextlib
import io
import subprocess
import sys

from stimamp.cli import main


def run_main(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(*args, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """`python -W error ARGS` with a timeout; output is captured unless the caller passes a stream.

    -W error: pytest's "any warning fails" does not reach a subprocess.
    """
    if "stdout" not in kwargs and "stderr" not in kwargs:
        kwargs["capture_output"] = True
    return subprocess.run([sys.executable, "-W", "error", *args], timeout=timeout, **kwargs)
