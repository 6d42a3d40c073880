"""The README's CLI tour, rerun: every block of the tour that shows
output runs its `$ fpxplain ...` lines in order in a temp directory,
and each shown output must be what the command prints. A line that
begins with a space continues the one above; `...` elides part of a
line; the bench's wall_seconds column is not compared."""

import re
import shlex
from pathlib import Path

from cli_runner import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_blocks() -> list[list[tuple[str, list[str]]]]:
    """The (command, shown lines) steps of each code block of the tour."""
    text = README.read_text()
    tour = text[text.index("## CLI tour"):text.index("## Library")]
    blocks = []
    for block in re.findall(r"```\n(.*?)```", tour, re.S):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
        blocks.append(steps)
    return blocks


def _joined(lines: list[str]) -> list[str]:
    """Continuation lines joined to the line above: with no space after a
    JSON separator, with one inside a string."""
    out = []
    for line in lines:
        if line.startswith(" ") and out:
            out[-1] += line[1:] if out[-1].endswith(",") else line
        else:
            out.append(line)
    return out


def _matches(shown: str, printed: str) -> bool:
    """printed is shown, or, where shown elides with `...`, holds its
    pieces in order, the first as a prefix and the last as a suffix."""
    pieces = shown.split("...")
    pattern = ".*".join(map(re.escape, pieces))
    return re.fullmatch(pattern, printed, re.S) is not None


def _csv_rows(lines: list[str]) -> list[list[str]]:
    rows = [line.split(",") for line in lines]
    wall = rows[0].index("wall_seconds")
    return [row[:wall] + row[wall + 1:] for row in rows]


def test_the_readme_cli_tour_prints_what_it_shows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = [steps for steps in _tour_blocks() if any(shown for _, shown in steps)]
    compared, exit_code = [], None
    for steps in blocks:
        for command, shown in steps:
            if command == "echo $?":
                assert shown == [str(exit_code)], command
                compared.append(command)
                continue
            argv = shlex.split(command)
            assert argv[0] == "fpxplain", command
            result = run(argv[1:])
            exit_code = result.exit_code
            if not shown:
                assert exit_code == 0, (command, result.output)
                continue
            printed = result.output.splitlines()
            shown = _joined(shown)
            if argv[1] == "bench":
                assert _csv_rows(printed) == _csv_rows(shown), command
            else:
                assert len(printed) == len(shown) == 1, (command, result.output)
                assert _matches(shown[0], printed[0]), (command, shown[0], printed[0])
            compared.append(argv[1] + " " + argv[argv.index("--kind") + 1]
                            if "--kind" in argv else argv[1])
    assert compared == ["query csr", "echo $?", "query shap", "query", "bench"]
