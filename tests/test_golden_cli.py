"""Byte-for-byte CLI outputs.

``golden_cli.json`` holds, for each command line, the exact stdout, stderr
and exit code that ``cli.main`` produced when the file was recorded.  A
change that should keep the CLI's behaviour must leave every case equal.
"""

import json
from pathlib import Path

import pytest

from torsionforms import cli

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    out, err = capsys.readouterr()
    # Python 3.10's argparse titles the option list "optional arguments:"
    out = out.replace("\noptional arguments:\n", "\noptions:\n")
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
