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
    """``check(n, p, q)``, q > 0: the identity of families.py's docstring at
    alpha = sigma p/q, with A_n(alpha), B_n(alpha) from the Tate pipeline:

        F(p, q) = l**4 A_n(alpha),   G(p, q) = l**6 B_n(alpha),

    l = q**(deg U / 4), or |p| q for n = 8, where A_8 and B_8 have the
    denominators alpha**4 and alpha**6; l is also ``pipeline_scale(p, q)``.
    This is what checks the forms U, V against the pipeline pointwise."""
    from fractions import Fraction

    from torsionforms import FAMILIES, tate_AB

    def check(n: int, p: int, q: int) -> None:
        fam = FAMILIES[n]
        A, B = tate_AB(n, Fraction(fam.sigma * p, q))
        lam = abs(p) * q if n == 8 else q ** (fam.U.degree // 4)
        assert fam.pipeline_scale(p, q) == lam, (n, p, q)
        assert fam.F(p, q) == lam**4 * A, (n, p, q)
        assert fam.G(p, q) == lam**6 * B, (n, p, q)

    return check


@pytest.fixture(scope="session")
def rebuild_family():
    """``rebuild(fam, **changes)``: the ThueFamily ``fam`` with some of its
    constructor fields changed, built through the constructor, so that the
    derived F, G, tate_A_num and tate_B_num follow the changed U, V, b_sign
    and sigma."""
    import inspect

    from torsionforms import ThueFamily

    names = inspect.signature(ThueFamily).parameters

    def rebuild(fam, **changes):
        return ThueFamily(**{name: changes.get(name, getattr(fam, name)) for name in names})

    return rebuild
