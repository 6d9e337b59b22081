"""Run every case of golden_cli.json through the installed ``torsionforms``
console script and compare its exit code, stdout and stderr with the case.

Run from anywhere, with the package installed (``pip install -e .``):

    python tests/check_console_script.py

The output is normalized as in test_golden_cli.py: argparse wraps help text
to COLUMNS=80, and Python 3.10's "optional arguments:" heading reads as
"options:".  Prints one line per case that differs and exits 1 if any does.
Needs only the standard library.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


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
        out = run.stdout.replace("\noptional arguments:\n", "\noptions:\n")
        if (run.returncode, out, run.stderr) != (case["exit"], case["stdout"], case["stderr"]):
            print(f"differs: torsionforms {' '.join(case['argv'])}", file=sys.stderr)
            differ += 1
    print(f"{len(CASES) - differ} of {len(CASES)} golden cases match through {script}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
