"""Run the fpxplain CLI in this process and record what a shell would see."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from fpxplain.cli import main


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr, in the order they were written
    exception: BaseException | None  # None on exit 0


def run(args) -> Result:
    """`fpxplain ARGS`: a SystemExit gives the exit code; any other
    exception is stored with exit code 1, so a test can tell a clean exit
    from a traceback."""
    buffer = io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            main(list(args))
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                exit_code = exc.code or 0
            else:
                print(exc.code)
                exit_code = 1
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, buffer.getvalue(), exception)
