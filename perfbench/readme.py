"""Run every command README.md shows and compare it with the printed output.

* ``$ fractal-tutte ...`` lines in text blocks: the lines that follow are
  the expected output; a ``...`` line ends the part that is compared.
* ``fractal-tutte ...`` lines in sh blocks: exit code 0, and a trailing
  ``# comment`` must start with the printed output.
* python blocks run statement by statement; an expression with a
  ``# comment`` that starts with a number must equal it (``about x``
  allows 5%).

Other shell lines (pip, pytest) are not run.  Commands run in-process
through ``cli.main``; ``--out`` files go to a temporary directory.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

PROGRAM = "fractal-tutte"


def code_blocks(text: str) -> list[tuple[str, list[str]]]:
    return [(lang, body.splitlines())
            for lang, body in re.findall(r"```(\w*)\n(.*?)```", text, re.S)]


def commands(text: str) -> list[tuple[str, list[str] | None, bool]]:
    """(command line, expected output or None, whether the expected output
    is printed below the command) for the CLI examples."""
    found = []
    for lang, lines in code_blocks(text):
        for i, line in enumerate(lines):
            if line.startswith(f"$ {PROGRAM} "):
                expected = []
                for follow in lines[i + 1:]:
                    if follow.startswith("$ "):
                        break
                    expected.append(follow)
                found.append((line[2:], expected, True))
            elif lang == "sh" and line.startswith(f"{PROGRAM} "):
                command, _, comment = line.partition("#")
                found.append((command.strip(),
                              [comment.strip()] if comment else None, False))
    return found


def run_cli(cli, command: str, tmp: Path) -> tuple[int, str]:
    argv = command.split()[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp / Path(argv[i]).name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def cli_matches(expected, printed_below: bool, output: str) -> bool:
    if expected is None:
        return True
    if not printed_below:
        return expected[0].startswith(output.strip()) and output.strip() != ""
    if "..." in expected:
        expected = expected[:expected.index("...")]
        return output.splitlines()[:len(expected)] == expected
    return output.splitlines() == expected


def python_failures(lines: list[str]) -> list[str]:
    source = "\n".join(lines)
    namespace: dict = {}
    failures = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            if isinstance(stmt, ast.Expr):
                value = eval(code, namespace)
                if not value_matches(value, comment):
                    failures.append(f"{code}: {value!r} vs {comment!r}")
            else:
                exec(code, namespace)
        except Exception as exc:  # a README example that raises is a failure
            failures.append(f"{code}: {type(exc).__name__}: {exc}")
    return failures


def value_matches(value, comment: str) -> bool:
    approximate = comment.startswith("about ")
    words = comment.removeprefix("about ").split()
    try:
        expected = Fraction(words[0]) if words else None
    except ValueError:
        return True
    if expected is None:
        return True
    if approximate:
        return abs(Fraction(value) - expected) <= abs(expected) / 20
    return value == expected


def readme_failures(cli, readme: Path, tmp: Path) -> tuple[int, list[str]]:
    """(examples run, failure descriptions)."""
    text = readme.read_text()
    failures, ran = [], 0
    for command, expected, printed_below in commands(text):
        ran += 1
        try:
            code, output = run_cli(cli, command, tmp)
        except Exception as exc:  # a README example that raises is a failure
            failures.append(f"{command}: {type(exc).__name__}: {exc}")
            continue
        if code != 0 or not cli_matches(expected, printed_below, output):
            failures.append(f"{command}: exit {code}, output differs")
    for lang, lines in code_blocks(text):
        if lang == "python":
            ran += sum(1 for _ in ast.parse("\n".join(lines)).body)
            failures += python_failures(lines)
    return ran, failures
