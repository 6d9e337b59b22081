"""The three workloads: their seeded inputs, their operations, and the checks
of every answer against the benchmark's own arithmetic (``refarith``).

A workload hands out its operations in rounds.  Every round has the same
make-up, and round r draws its inputs from ``(seed, r)`` alone, so a run of
any length attempts whole rounds and the share of failed operations is fixed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import refarith as ra

FAILED = "failed"


def _rng(seed: int, r: int) -> random.Random:
    return random.Random(f"{seed}/{r}")


def verify_trace(tf, A: int, B: int, n: int, trace):
    """None when the trace proves a point of order n on y^2 = x^3 + Ax + B,
    else what is wrong with it."""
    short = ra.tate_short(n, trace.alpha)
    if short is None:
        return f"alpha = {trace.alpha} is a degenerate Tate parameter"
    A_t, B_t, P = short
    u = trace.u
    if u**4 * A != A_t or u**6 * B != B_t:
        return f"(alpha, u) = ({trace.alpha}, {u}) does not solve the matching system"
    if ra.order(A, B, (P[0] / u**2, P[1] / u**3)) != n:
        return "the Tate point does not map to a point of order n"
    if trace.witness is None:
        return "trace has no witness"
    s = 6 * trace.scale
    A6, B6 = 6**4 * A, 6**6 * B
    for Q in tf.thue.order_n_points(trace.witness):
        if ra.order(A6, B6, (Q.x * s**2, Q.y * s**3)) != n:
            return f"witness point {Q} does not map to a point of order n on the 6-twist"
    return None


class Detect:
    """What the two detect workloads share: the warm-up query, a random curve
    of ten digits that sends `rational_roots` to its sympy fallback."""

    WARMUP = (1234567891, -9876543211)

    def __init__(self, tf, seed: int, workdir):
        self.tf, self.seed = tf, seed

    def warmup(self) -> None:
        self.tf.thue.detect(self.tf.curves.Curve(*self.WARMUP), 7)


class DetectRandom(Detect):
    """Random integral curves; every answer is None, backed by an F_l count."""

    name = "detect_random"
    tail = 85
    rounds = None
    trace_rounds = 4
    DIGITS = (5, 10, 20, 40)
    # Fixed curves with A*B = 0 whose discriminants keep a prime factor above
    # the trial-division limit: detect hands them to the torsion oracle, which
    # raises OracleUnavailableError although no such curve has a point of
    # order 5, 7, 8 or 9.  One query on each per round, whatever the seed.
    ZERO_SLICE = ((0, 73550963175629734993), (4378218794305214720347189631209843791573, 0))

    def round(self, r: int):
        rng = _rng(self.seed, r)
        Curve, detect = self.tf.curves.Curve, self.tf.thue.detect
        ops = []
        for d in self.DIGITS:
            A, B = (rng.choice((-1, 1)) * rng.randrange(10 ** (d - 1), 10**d) for _ in "AB")
            c = Curve(A, B)
            ops += [(detect, (c, n), False) for n in ra.ORDERS]
        n = ra.ORDERS[r % len(ra.ORDERS)]
        ops += [(detect, (Curve(A, B), n), True) for A, B in self.ZERO_SLICE]
        return ops

    def check(self, op, result):
        _, (c, n), in_slice = op
        if isinstance(result, Exception):
            if in_slice and type(result).__name__ == "OracleUnavailableError":
                return FAILED
            return f"detect({c}, {n}) raised {result!r}"
        if result is not None:
            return verify_trace(self.tf, c.A, c.B, n, result)
        if ra.absence_certificate(c.A, c.B, n) is None:
            return f"detect({c}, {n}) = None but no prime below 700 certifies it"
        return None


class DetectPlanted(Detect):
    """Every curve with a planted point of order n from Kubert's E(b, c) at a
    parameter t = a/b with |a|, b <= HEIGHT, and six twists of each."""

    name = "detect_planted"
    tail = 99
    rounds = trace_rounds = 1
    HEIGHT = 6
    TWISTS = (2, 3, 5, 6, 7, 10, 11, 13)
    TWISTS_PER_CURVE = 6

    @classmethod
    def population(cls):
        """One curve per j-invariant: t and its images under the modular
        symmetries give the same j, and thue caches its root searches by j."""
        seen, bases = {ra.j_invariant(*cls.WARMUP)}, []
        for n in ra.ORDERS:
            for b in range(1, cls.HEIGHT + 1):
                for a in range(-cls.HEIGHT, cls.HEIGHT + 1):
                    planted = ra.planted_curve(n, Fraction(a, b))
                    if planted is None:
                        continue
                    j = ra.j_invariant(*planted[:2])
                    if j not in seen:
                        seen.add(j)
                        bases.append((n, planted))
        return bases

    def round(self, r: int):
        rng = _rng(self.seed, r)
        bases = self.population()
        rng.shuffle(bases)
        Curve, detect = self.tf.curves.Curve, self.tf.thue.detect
        ops = []
        for n, (A, B, P) in bases:
            twists = rng.sample(self.TWISTS, self.TWISTS_PER_CURVE)
            curves = [(A, B)] + [ra.twist(A, B, P, u)[:2] for u in twists]
            for a, b in curves:
                ops += [(detect, (Curve(a, b), m), n) for m in ra.ORDERS]
        return ops

    def check(self, op, result):
        _, (c, m), n = op
        if isinstance(result, Exception):
            return f"detect({c}, {m}) raised {result!r}"
        if m != n:
            # Mazur: no rational torsion group has points of two of the orders 5, 7, 8, 9
            return None if result is None else f"detect({c}, {m}) found a point of order {m} " \
                f"on a curve with a point of order {n}"
        if result is None:
            return f"detect({c}, {n}) = None on a curve with a planted point of order {n}"
        return verify_trace(self.tf, c.A, c.B, n, result)


class Scan:
    """CLI scan over the rows of a centered witness grid for all four orders."""

    name = "scan"
    tail = 90
    rounds = None
    trace_rounds = 1
    RADIUS = {5: 6, 7: 5, 8: 4, 9: 4}
    WARMUP = ["scan", "5", "--pmin", "7", "--pmax", "7", "--qmin", "1", "--qmax", "1"]

    def __init__(self, tf, seed: int, workdir):
        self.tf, self.seed, self.workdir = tf, seed, workdir
        # Rounds repeat the same grid, so the oracle's cache is emptied
        # between them; within a round it serves the grid's symmetric cells.
        self.clear_cache = getattr(tf.torsion.torsion_points, "cache_clear", None)

    def _argv(self, args, path):
        return args + ["--workers", "1", "--out", str(path)]

    def warmup(self) -> None:
        self.tf.cli.main(self._argv(self.WARMUP, self.workdir / "warmup.jsonl"))

    def round(self, r: int):
        """Each order's rows in ascending |p|, so that every cell's symmetry
        orbit is computed in the same row whatever the seed; the seed picks
        which of the rows p and -p comes first and gets JSONL (the other gets
        CSV), and how the four orders' row sequences interleave."""
        if r and self.clear_cache is not None:
            self.clear_cache()
        rng = _rng(self.seed, r)
        queues = {}
        for n, R in self.RADIUS.items():
            queues[n] = []
            for a in range(1, R + 1):
                sign = rng.choice((1, -1))
                queues[n] += [(sign * a, False), (-sign * a, True)]
        picks = [n for n, q in queues.items() for _ in q]
        rng.shuffle(picks)
        main = self.tf.cli.main
        ops = []
        for i, n in enumerate(picks):
            p, csv = queues[n].pop(0)
            R = self.RADIUS[n]
            path = self.workdir / f"scan-{r}-{i}.{'csv' if csv else 'jsonl'}"
            argv = ["scan", str(n), "--pmin", str(p), "--pmax", str(p),
                    "--qmin", str(-R), "--qmax", str(R)] + (["--csv"] if csv else [])
            ops.append((main, (self._argv(argv, path),), (n, p, R, csv, path)))
        return ops

    @staticmethod
    def expected_cells(n: int, p: int, R: int):
        """The (p, q, k) of the row that the paper's side conditions admit and
        that give a nonsingular curve; q = 0 is a cusp for every order."""
        cells = set()
        for q in range(-R, R + 1):
            if q and ra.side_conditions_ok(n, p, q) and \
                    ra.tate_short(n, Fraction(ra.SIGMA[n] * p, q)) is not None:
                cells.update((p, q, k) for k in ra.BRANCHES[n])
        return cells

    def check(self, op, result):
        _, _, (n, p, R, csv, path) = op
        if isinstance(result, Exception) or result != 0:
            return f"scan {n} row {p} returned {result!r}"
        lines = path.read_text().splitlines()
        if csv:
            if not lines or lines[0] != "n,p,q,k,A,B,group":
                return f"scan {n} row {p}: bad CSV header"
            rows = [dict(zip(("n", "p", "q", "k", "A", "B", "group_label"), ln.split(",")))
                    for ln in lines[1:]]
        else:
            rows = [json.loads(ln) for ln in lines]
        cells = [(int(d["p"]), int(d["q"]), Fraction(d["k"])) for d in rows]
        if len(cells) != len(set(cells)) or set(cells) != self.expected_cells(n, p, R):
            return f"scan {n} row {p}: records for {sorted(cells)} are not the admissible cells"
        for d, (_, q, _) in zip(rows, cells):
            err = self._check_record(n, p, q, d)
            if err:
                return f"scan {n} row {p} q {q}: {err}"
        return None

    @staticmethod
    def _check_record(n: int, p: int, q: int, d):
        if int(d["n"]) != n:
            return "wrong order"
        A, B = int(d["A"]), int(d["B"])
        A_t, B_t, _ = ra.tate_short(n, Fraction(ra.SIGMA[n] * p, q))
        if ra.disc(A, B) == 0 or ra.j_invariant(A, B) != ra.j_invariant(A_t, B_t):
            return "curve is not a twist of the cell's Tate curve"
        size = ra.group_order(d["group_label"])
        if size % n or ra.torsion_bound(A, B) % size:
            return f"group {d['group_label']} is impossible"
        if "points" in d:
            if int(d["delta"]) != ra.disc(A, B):
                return "wrong discriminant"
            for x, y in d["points"]:
                if ra.order(A, B, (Fraction(x), Fraction(y))) != n:
                    return f"point ({x}, {y}) does not have order n"
        return None


WORKLOADS = {w.name: w for w in (DetectRandom, DetectPlanted, Scan)}
