"""The CLI case table, tests/data/cli_cases.json, and a runner for it.

    PYTHONPATH=src python tests/cli_cases.py python -m latticeqmc.cli
    python tests/cli_cases.py latticeqmc          # the installed script

runs every row through the command its arguments name, each in a fresh
temporary directory, prints one FAIL line per row that does not hold, and
exits 1 if any does not.  `tests/test_cli.py` runs the same rows through
`cli.main` in process, each under the test that `test` names, grouped by
`id` into that test's pytest ids.

A row holds:
  test, id   the test of tests/test_cli.py that runs it, and its pytest id
  argv       the arguments after the command
  exit       the exit code
  files      inputs written first: {name: text, a list of [text, count]
             pieces, or {"hex": bytes}}
  before     argument lists run first, each of which must exit 0
  stdout, stderr, outputs
             expectations on the streams and on {name: file} written: a string
             is the whole text, an object names checks (CHECKS)
  child      run as a child process under tier-1 too (Python's default
             warning filters)
  note       why the case is there, for the reader; nothing reads it
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "data" / "cli_cases.json"
KEYS = {"test", "id", "argv", "exit", "files", "before", "stdout", "stderr", "outputs", "child",
        "note"}
CHECKS = {"startswith", "contains", "excludes", "lines", "first_line", "same_fields"}


def load() -> list[dict]:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    for row in rows:
        if set(row) - KEYS:
            raise ValueError(f"{label(row)}: unknown keys {sorted(set(row) - KEYS)}")
    return rows


def label(row: dict) -> str:
    return f"{row['test']}[{row['id']}]"


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def write_inputs(row: dict, cwd) -> None:
    for name, spec in row.get("files", {}).items():
        if isinstance(spec, dict):
            data = bytes.fromhex(spec["hex"])
        else:
            pieces = [[spec, 1]] if isinstance(spec, str) else spec
            data = "".join(text * count for text, count in pieces).encode()
        (Path(cwd) / name).write_bytes(data)


def _check_text(where: str, text: str, want) -> None:
    if isinstance(want, str):
        _expect(text == want, f"{where} is {text!r}, not {want!r}")
        return
    _expect(not set(want) - CHECKS, f"unknown checks {sorted(set(want) - CHECKS)}")
    lines = text.splitlines()
    _expect(text.startswith(want.get("startswith", "")),
            f"{where} {text!r} does not start with {want.get('startswith')!r}")
    for part in want.get("contains", ()):
        _expect(part in text, f"{where} {text!r} lacks {part!r}")
    for part in want.get("excludes", ()):
        _expect(part not in text, f"{where} {text!r} holds {part!r}")
    if "lines" in want:
        _expect(len(lines) == want["lines"], f"{where} has {len(lines)} lines, not {want['lines']}")
    if "first_line" in want:
        _expect(lines[:1] == [want["first_line"]], f"{where} starts {lines[:1]}")
    if "same_fields" in want:  # CSV: these two fields agree in every row after the header
        i, j = want["same_fields"]
        for line in lines[1:]:
            cells = line.split(",")
            _expect(cells[i] == cells[j], f"{where}: fields {i} and {j} differ in {line!r}")


def check(row: dict, code: int, out: str, err: str, cwd) -> None:
    """Raise AssertionError unless the exit code, streams and output files are as the row says."""
    _expect(code == row["exit"], f"exit {code}, not {row['exit']}; stderr {err!r}")
    for where, text in (("stdout", out), ("stderr", err)):
        if where in row:
            _check_text(where, text, row[where])
    for name, want in row.get("outputs", {}).items():
        _check_text(name, (Path(cwd) / name).read_text(encoding="utf-8"), want)


def run(row: dict, command: list[str], cwd, env=None) -> None:
    """Run the row through command in cwd as a child process, and check it."""
    def child(argv):
        return subprocess.run([*command, *argv], cwd=cwd, env=env, capture_output=True,
                              encoding="utf-8", timeout=600)

    write_inputs(row, cwd)
    for argv in row.get("before", ()):
        proc = child(argv)
        _expect(proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr!r}")
    proc = child(row["argv"])
    check(row, proc.returncode, proc.stdout, proc.stderr, cwd)


def main(command: list[str]) -> int:
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    # the children run in temporary directories, where a relative PYTHONPATH (src) names nothing
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        paths = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, paths))
    rows, failed = load(), 0
    for row in rows:
        with tempfile.TemporaryDirectory() as cwd:
            try:
                run(row, command, cwd, env)
            except (AssertionError, OSError, subprocess.SubprocessError) as exc:  # a timeout too
                failed += 1
                print(f"FAIL {label(row)}: {exc}")
    print(f"{len(rows) - failed} of {len(rows)} CLI cases pass through {' '.join(command)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
