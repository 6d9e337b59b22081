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


@pytest.fixture(scope="session")
def form_identity():
    """``check(n, p, q)``: the identity of families.py's docstring at
    alpha = sigma p/q, with A_n(alpha), B_n(alpha) from the Tate pipeline:

        -27 U(p, q) = q**deg U * alpha**a_pow * A_n(alpha),
        b_sign 54 V(p, q) = q**deg V * alpha**b_pow * B_n(alpha).

    This is what checks the forms U, V against the pipeline pointwise."""
    from fractions import Fraction

    from torsionforms import FAMILIES, interpolated_pipeline_poly, tate_AB

    powers = {n: interpolated_pipeline_poly(n)[1::2] for n in FAMILIES}

    def check(n: int, p: int, q: int) -> None:
        fam = FAMILIES[n]
        a_pow, b_pow = powers[n]
        alpha = Fraction(fam.sigma * p, q)
        A, B = tate_AB(n, alpha)
        assert -27 * fam.U(p, q) == q**fam.U.degree * alpha**a_pow * A, (n, p, q)
        assert fam.b_sign * 54 * fam.V(p, q) == q**fam.V.degree * alpha**b_pow * B, (n, p, q)

    return check
