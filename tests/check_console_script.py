"""Run every case of golden_cli.json through the installed ``torsionforms``
console script and compare its exit code, stdout and stderr with the case.

Run from anywhere, with the package installed (``pip install -e .``):

    python tests/check_console_script.py

The output is normalized as in test_golden_cli.py: argparse wraps help text
to COLUMNS=80, and Python 3.10's "optional arguments:" heading reads as
"options:".  For each case that differs it prints the argv, then each stream
that differs (exit, stdout or stderr) with a short diff against the case,
and it exits 1 if any case differs.  Needs only the standard library.
"""

import difflib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
DIFF_LINES = 12   # diff lines shown per stream
LINE_CHARS = 160  # characters shown per diff line: some outputs have 16k digits


def report(case: dict, got: dict) -> None:
    """Print the case's argv and a short diff of each stream that differs."""
    print(f"differs: torsionforms {' '.join(case['argv'])}", file=sys.stderr)
    for stream in ("exit", "stdout", "stderr"):
        if got[stream] == case[stream]:
            continue
        if stream == "exit":
            print(f"  exit: expected {case['exit']}, got {got['exit']}", file=sys.stderr)
            continue
        diff = list(difflib.unified_diff(
            case[stream].splitlines(keepends=True), got[stream].splitlines(keepends=True),
            f"golden {stream}", f"actual {stream}", n=1))
        print(f"  {stream}:", file=sys.stderr)
        for line in diff[:DIFF_LINES]:
            line = line.rstrip("\n")
            cut = f" ... ({len(line) - LINE_CHARS} more characters)" if len(line) > LINE_CHARS else ""
            print(f"    {line[:LINE_CHARS]}{cut}", file=sys.stderr)
        if len(diff) > DIFF_LINES:
            print(f"    ... ({len(diff) - DIFF_LINES} more diff lines)", file=sys.stderr)
        # a cut diff line can hide its difference: show where it starts
        want, have = case[stream], got[stream]
        i = next((i for i, (x, y) in enumerate(zip(want, have)) if x != y), len(min(want, have, key=len)))
        print(f"    first difference at character {i}: expected {want[i:i + 40]!r}, "
              f"got {have[i:i + 40]!r}", file=sys.stderr)


def main() -> int:
    script = shutil.which("torsionforms")
    if script is None:
        print("no torsionforms console script on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ, COLUMNS="80")
    differ = 0
    for case in CASES:
        run = subprocess.run([script, *case["argv"]], capture_output=True,
                             encoding="utf-8", env=env)
        got = {"exit": run.returncode, "stderr": run.stderr,
               "stdout": run.stdout.replace("\noptional arguments:\n", "\noptions:\n")}
        if any(got[stream] != case[stream] for stream in got):
            report(case, got)
            differ += 1
    print(f"{len(CASES) - differ} of {len(CASES)} golden cases match through {script}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
