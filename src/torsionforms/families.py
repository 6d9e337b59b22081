"""Per-order coefficient tables for the binary-form families.

For each n in {5, 7, 8, 9} the family's model is the pair of integer forms

    F = -27 * U_n,      G = b_sign * 54 * V_n,

and the witness (p, q, k), with k ranging over a small branch set, gives the
curve (A, B) = (k**4 * F(p, q), k**6 * G(p, q)) and the order-n points

    ( 3 * k**2 * X_i(p, q),  +-108 * k**3 * Y_i(p, q) ).

At alpha = sigma*p/q, q > 0, the model is the Tate normal form's short model
(A_n, B_n from ``tate.tate_AB``) scaled by l = ``pipeline_scale(p, q)``,

    (F, G)(p, q) = (l**4 * A_n(alpha), l**6 * B_n(alpha)),

with l = q**j for deg F = 4*j, and l = |p|*q for n = 8, where A_8 and B_8
have the denominators alpha**4 and alpha**6.

All tables are transcribed from their published source and verified against
the Tate pipeline by the test suite; known transcription issues are listed in
``PROVENANCE`` rather than silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import HomForm, IntPoly

# convenience linear forms (coefficients ascending in p)
_P = HomForm(1, (0, 1))          # p
_Q = HomForm(1, (1, 0))          # q
_P_MINUS_Q = HomForm(1, (-1, 1))  # p - q
_Q_MINUS_P = HomForm(1, (1, -1))  # q - p
_Q_MINUS_2P = HomForm(1, (1, -2))  # q - 2p


@dataclass(frozen=True)
class ThueFamily:
    n: int
    kset: tuple[Fraction, ...]
    sigma: int                      # witness orientation: alpha = sigma * p / q
    b_sign: int
    U: HomForm
    V: HomForm
    point_x: tuple[HomForm, ...]
    point_y: tuple[HomForm, ...]
    # the Moebius map alpha -> (a*alpha + b)/(c*alpha + d), as (a, b, c, d), of
    # a diamond automorphism of X_1(n): it keeps the curve (and j) and moves
    # the marked point P to a multiple dP, so it permutes the roots of detect's
    # matching polynomial (Kubert, Proc. LMS 33, 1976)
    symmetry: tuple[int, int, int, int]
    degrees: tuple[int, int, int, int]  # (deg F, deg G, deg x, deg y)
    nonzero_pq: bool
    p_ne_q: bool
    two_p_ne_q: bool
    # derived: the model F = -27 U, G = +-54 V, and F(sigma x, 1), G(sigma x, 1)
    F: HomForm = field(init=False)
    G: HomForm = field(init=False)
    tate_A_num: IntPoly = field(init=False)
    tate_B_num: IntPoly = field(init=False)

    def __post_init__(self):
        F, G = -27 * self.U, self.b_sign * 54 * self.V
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "tate_A_num", F.dehomogenize(self.sigma))
        object.__setattr__(self, "tate_B_num", G.dehomogenize(self.sigma))

    @property
    def scale_power(self) -> int:
        """j with deg F = 4*j; the witness denominator enters u through q**j."""
        return self.degrees[0] // 4

    def pipeline_scale(self, p: int, q: int) -> int:
        """l with (F, G)(p, q) = (l**4 * A_n(alpha), l**6 * B_n(alpha)) at
        alpha = sigma*p/q, q > 0 (see the module docstring)."""
        return abs(p) * q if self.n == 8 else q**self.scale_power

    def side_conditions_ok(self, p: int, q: int) -> bool:
        if self.nonzero_pq and (p == 0 or q == 0):
            return False
        if self.p_ne_q and p == q:
            return False
        if self.two_p_ne_q and 2 * p == q:
            return False
        return True


def _family_5() -> ThueFamily:
    U = HomForm(4, (1, -12, 14, 12, 1))
    V = HomForm(2, (1, 0, 1)) * HomForm(4, (1, -18, 74, 18, 1))
    X = (HomForm(2, (1, -6, 1)), HomForm(2, (1, 6, 1)))
    Y = (_P * _P * _Q, _P * _Q * _Q)
    return ThueFamily(
        n=5, kset=(Fraction(1),), sigma=-1, b_sign=1,
        U=U, V=V, point_x=X, point_y=Y,
        symmetry=(0, -1, 1, 0),  # alpha -> -1/alpha, of order 2
        degrees=(4, 6, 2, 3), nonzero_pq=True, p_ne_q=False, two_p_ne_q=False,
    )


def _family_7() -> ThueFamily:
    U = HomForm(2, (1, -1, 1)) * HomForm(6, (1, 5, -10, -15, 30, -11, 1))
    V = HomForm(12, (1, 6, -15, -46, 174, -222, 273, -486, 570, -354, 117, -18, 1))
    X = (
        HomForm(4, (1, -10, 15, -6, 1)),
        HomForm(4, (1, 2, 3, -6, 1)),
        HomForm(4, (1, 2, -9, 6, 1)),
    )
    Y = (
        _P_MINUS_Q**3 * _P * _Q**2,
        _P_MINUS_Q * _P**2 * _Q**3,
        _P_MINUS_Q**2 * _P**3 * _Q,
    )
    return ThueFamily(
        n=7, kset=(Fraction(1), Fraction(1, 3)), sigma=1, b_sign=1,
        U=U, V=V, point_x=X, point_y=Y,
        symmetry=(1, -1, 1, 0),  # alpha -> 1 - 1/alpha, of order 3
        degrees=(8, 12, 4, 6), nonzero_pq=True, p_ne_q=True, two_p_ne_q=False,
    )


def _family_8() -> ThueFamily:
    U = HomForm(8, (1, -16, 96, -288, 480, -448, 224, -64, 16))
    V = HomForm(4, (1, -8, 16, -16, 8)) * HomForm(8, (-1, 16, -96, 288, -456, 352, -80, -32, 8))
    X = (
        HomForm(4, (1, 4, -20, 20, -4)),
        HomForm(4, (1, -8, 16, -4, -4)),
    )
    Y = (
        _P * _Q * _Q_MINUS_P**3 * _Q_MINUS_2P,
        _P**3 * _Q * _Q_MINUS_P * _Q_MINUS_2P,
    )
    return ThueFamily(
        n=8, kset=(Fraction(1), Fraction(1, 2)), sigma=1, b_sign=-1,
        U=U, V=V, point_x=X, point_y=Y,
        symmetry=(-1, 1, 0, 1),  # alpha -> 1 - alpha, of order 2
        degrees=(8, 12, 4, 6), nonzero_pq=False, p_ne_q=True, two_p_ne_q=True,
    )


def _family_9() -> ThueFamily:
    U = HomForm(3, (1, 0, -3, 1)) * HomForm(9, (1, 0, -9, 27, -45, 54, -48, 27, -9, 1))
    V = HomForm(
        18,
        (1, 0, -18, 42, 27, -306, 735, -1080, 1359, -2032, 3240,
         -4230, 4128, -2970, 1557, -570, 135, -18, 1),
    )
    X = (
        HomForm(6, (1, 0, -6, 14, -15, 6, 1)),
        HomForm(6, (1, -12, 30, -34, 21, -6, 1)),
        HomForm(6, (1, 0, 6, -10, 9, -6, 1)),
    )
    Y = (
        _P**4 * _Q * HomForm(4, (1, -3, 4, -3, 1)),
        _P * _Q**2 * HomForm(6, (1, -5, 11, -14, 11, -5, 1)),
        _P**2 * _Q**4 * HomForm(3, (-1, 2, -2, 1)),
    )
    return ThueFamily(
        n=9, kset=(Fraction(1), Fraction(1, 3)), sigma=1, b_sign=1,
        U=U, V=V, point_x=X, point_y=Y,
        symmetry=(1, -1, 1, 0),  # alpha -> 1 - 1/alpha, of order 3
        degrees=(12, 18, 6, 9), nonzero_pq=True, p_ne_q=True, two_p_ne_q=False,
    )


FAMILIES: dict[int, ThueFamily] = {
    5: _family_5(),
    7: _family_7(),
    8: _family_8(),
    9: _family_9(),
}

FAMILY_ORDERS = tuple(sorted(FAMILIES))


def family(n: int) -> ThueFamily:
    """The order-n family; ValueError for an order without one."""
    fam = FAMILIES.get(n)
    if fam is None:
        raise ValueError(f"no family for order n = {n}")
    return fam


# Transcription notes: places where the published tables disagree with
# themselves; in every case the group-law / Tate-pipeline computation is
# authoritative and the verified reading is recorded here.
PROVENANCE: dict[str, str] = {
    "main-disc-formula": (
        "The headline discriminant is displayed as 16(4A^4+27B^2); the standard "
        "-16(4A^3+27B^2) is used throughout, and its magnitude matches the n=5 "
        "discriminant-table row at (x, y) = (1, 1)."
    ),
    "A8-p5q3": (
        "The n=8 statement has -448 p^5 q^3 while the post-substitution display "
        "has -446 p^5 q^3; the pipeline confirms -448."
    ),
    "B8-alpha10": (
        "The printed B_8 numerator skips the alpha^10 term between -384 alpha^11 "
        "and +3520 alpha^9; the pipeline identity gives coefficient 0, so the "
        "printed list is complete as written."
    ),
    "B8-v-bracket": (
        "The restated n=8 B display shows -80 p^2 q^2 inside the degree-8 bracket; "
        "homogeneity and the pipeline give -80 p^6 q^2 (as in the statement)."
    ),
    "n8-z-system": (
        "In the n=8 elimination block, B(z1,z2) = (2z1-z2^2)(z1^2+2z1z2^2-z2^2) is "
        "weight-inhomogeneous; the weight-consistent (2z1-z2^2)(z1^2+2z1z2^2-z2^4) "
        "reproduces u^6 B_8(alpha) exactly and is what param_cross_check verifies. "
        "The companion constraint z3^2+z4^2-3z1 = 0 fails identically for the "
        "printed z-values (residual 3z1-z3^2-z4^2 != 0 for generic alpha) and no "
        "single-symbol correction restores it; it is not asserted.  The second "
        "constraint z4^2 = z2(2z3+z2) holds as printed."
    ),
    "n9-point-y3": (
        "The third n=9 point's y-polynomial prints '2pq^2p' inside "
        "(p^3-2p^2q+2pq^2-q^3); the homogeneous reading 2pq^2 is verified by the "
        "on-curve and exact-order checks."
    ),
    "disc-table-normalization": (
        "The discriminant-table rows for n >= 7 are not the k=1 curves: "
        "|disc| of the k=1 curve equals 3^12 * |table| for n=7, 2^12 * |table| "
        "for n=8, while for n=9 the k=1/3 curve satisfies "
        "disc = 2^12 p^9 q^9 (x^3-6x^2y+3xy^2+y^3)(x^2-xy+y^2)^3 (p-q)^9, i.e. "
        "the printed row is missing a y^9 factor and carries 2^8 where the curve "
        "needs 2^12.  Only the n=5 row matches the k=1 curve exactly."
    ),
}
