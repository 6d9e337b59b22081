import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Put ``src`` on PYTHONPATH for the ``python -m torsionforms`` child
    processes of test_cli; pyproject's ``pythonpath`` reaches only this one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")])))
        yield
