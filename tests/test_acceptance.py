"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.

Criterion 5 is asserted exactly as stated (generated k=1 curves against the
discriminant table).  Only the n=5 row actually has the k=1 normalization;
the n=7, 8, 9 sub-criteria fail with the measured constant ratios and are
expected to stay red -- see families.PROVENANCE["disc-table-normalization"]
for the verified identities, which are pinned green in test_bounds.py.
"""

import random
import sys
import time
from fractions import Fraction as F
from math import gcd

import pytest

from torsionforms import (
    Curve,
    FAMILIES,
    INFINITY,
    Witness,
    brute_force_witness_search,
    detect,
    disc_AB,
    disc_poly,
    eval_AB,
    eval_FG,
    evertse_bound,
    has_point_of_order,
    mazur_count_bound,
    order_n_points,
    point_order,
    torsion_points,
    twist_scale,
)

ORDERS = (5, 7, 8, 9)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"{name} {detail}"


def _integral_curve(w: Witness) -> Curve:
    A, B = eval_AB(w)
    if A.denominator == 1 and B.denominator == 1:
        return Curve(int(A), int(B))
    return Curve(*eval_FG(w))


def _grid_witnesses(n: int, bound: int):
    fam = FAMILIES[n]
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if p == 0 or q == 0 or gcd(p, q) != 1:
                continue
            if not fam.side_conditions_ok(p, q):
                continue
            for k in fam.kset:
                w = Witness(n, p, q, k)
                if disc_AB(*eval_AB(w)) != 0:
                    yield w


@pytest.fixture(scope="module")
def corpus():
    """Generated witness curves (|p|, |q| <= 3, all branches) plus hand curves."""
    curves: dict = {}
    for n in ORDERS:
        for w in _grid_witnesses(n, 3):
            c = _integral_curve(w)
            curves[(c.A, c.B)] = c
    for A, B in [(1, 0), (0, 1), (-43, 166)]:
        curves[(A, B)] = Curve(A, B)
    assert len(curves) >= 50
    return list(curves.values())


def test_criterion_1_tate_pipeline_identity(form_identity):
    start = time.time()
    rng = random.Random(101)
    for n in ORDERS:
        done = 0
        while done < 50:
            p, q = rng.randint(-60, 60), rng.randint(1, 15)
            if n == 8 and p == 0:
                continue
            form_identity(n, p, q)
            done += 1
    elapsed = time.time() - start
    _report("criterion 1: Tate pipeline == printed polynomials (50 random rationals each)",
            elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_generation_property():
    start = time.time()
    expected_counts = {5: 92, 7: 180, 8: 176, 9: 180}
    for n in ORDERS:
        count = 0
        for w in _grid_witnesses(n, 6):
            A, B = eval_AB(w)
            pts = order_n_points(w)  # hard-errors if off-curve or wrong order
            assert len(pts) == 2 * len(FAMILIES[n].point_x)
            for P in pts:
                assert P.y * P.y == P.x**3 + A * P.x + B
            count += 1
        assert count == expected_counts[n], (n, count)
        if n != 5:
            assert count >= 100
    elapsed = time.time() - start
    _report("criterion 2: all printed points have exact order n over the |p|,|q|<=6 grid",
            elapsed < 120.0,
            f"{elapsed:.1f}s; per-order curve counts {expected_counts} (n=5 grid tops out at 92)")


def test_criterion_3_known_witness_curves():
    start = time.time()
    expected = [
        (-43, 166, 7, F(1, 3)),
        (-22187952, 23592760704, 8, F(1, 2)),
        (-219, 1654, 9, F(1, 3)),
    ]
    for A, B, n, k in expected:
        c = Curve(A, B)
        trace = detect(c, n)
        assert trace is not None and trace.witness is not None, (A, B, n)
        assert trace.witness.k == k, (A, B, n, trace.witness)
        assert trace.discrepancy is None
        # k = 1 system has no integral solution within bound 200
        assert brute_force_witness_search(c, n, 200, ks=(F(1),)) == []
    elapsed = time.time() - start
    _report("criterion 3: branch-necessity curves detected on their k branches; k=1 systems empty to 200",
            elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_4_oracle_equivalence(corpus):
    disagreements = []
    for c in corpus:
        for n in ORDERS:
            if (detect(c, n) is not None) != has_point_of_order(c, n):
                disagreements.append((c.A, c.B, n))
    _report(
        f"criterion 4: detect vs torsion oracle on {len(corpus)} curves x 4 orders",
        not disagreements, f"{len(disagreements)} disagreements",
    )


@pytest.mark.parametrize("n", ORDERS)
def test_criterion_5_discriminant_table(n):
    rng = random.Random(500 + n)
    fam = FAMILIES[n]
    checked = 0
    ratios = set()
    while checked < 100:
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        if p == 0 or q == 0 or not fam.side_conditions_ok(p, q):
            continue
        w = Witness(n, p, q, F(1))
        A, B = eval_AB(w)
        if disc_AB(A, B) == 0 or disc_poly(n, p, q) == 0:
            continue
        delta = abs(disc_AB(int(A), int(B)))
        table = abs(disc_poly(n, p, q))
        if delta != table:
            ratios.add(F(delta, table))
        checked += 1
    _report(
        f"criterion 5 (n={n}): |disc| of k=1 curves == |table row| for 100 witnesses",
        not ratios,
        "exact match" if not ratios else
        f"measured |disc|/|table| in {sorted(ratios)[:3]}...; table row is k-branch "
        "normalized, see PROVENANCE['disc-table-normalization']",
    )


def test_criterion_6_count_bounds():
    start = time.time()
    degree_of = {2: 3, 3: 4, 5: 5, 7: 7, 9: 4, 4: 3, 6: 3, 8: 3, 10: 3, 12: 3}
    for t in range(6):
        even = 7**60 + 6 * 7 ** (2 * (t + 1))
        three = 7**375 + 6 * 7 ** (8 * (t + 1))
        five = 7**1815 + 6 * 7 ** (20 * (t + 1))
        seven = 7**19440 + 6 * 7 ** (70 * (t + 1))
        for n in (2, 4, 6, 8, 10, 12):
            assert mazur_count_bound(n, t) == even
        assert mazur_count_bound(3, t) == three
        assert mazur_count_bound(9, t) == three
        assert mazur_count_bound(5, t) == five
        assert mazur_count_bound(7, t) == seven
        for n, r in degree_of.items():
            assert mazur_count_bound(n, t) == evertse_bound(r, t)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 40000))
    assert len(str(7**19440)) == 16429  # ~16k digit leading term rendered exactly
    elapsed = time.time() - start
    _report("criterion 6: count bounds match the four closed forms and the general bound",
            elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_7_twist_invariance(corpus):
    mismatches = []
    for c in corpus:
        base = {n: detect(c, n) is not None for n in ORDERS}
        for u in (2, 3, 6):
            cu = twist_scale(c, u)
            for n in ORDERS:
                if (detect(cu, n) is not None) != base[n]:
                    mismatches.append((c.A, c.B, u, n))
    _report("criterion 7: detect presence invariant under u in {2,3,6} twists",
            not mismatches, f"{len(mismatches)} mismatches")


def test_criterion_8_torsion_integrality(corpus):
    bad = []
    for c in corpus:
        for P in torsion_points(c):
            if P is INFINITY:
                continue
            if P.x.denominator != 1 or P.y.denominator != 1:
                bad.append((c.A, c.B, P))
            assert point_order(c, P) <= 12
    _report("criterion 8: every oracle torsion point has integral coordinates",
            not bad, f"{len(bad)} non-integral points")
