"""Per-layer spans for the traced run, recorded from the benchmark's side.

Modules of ``torsionforms`` import each other's functions by name, so every
public function is replaced, in every module that holds it, by a wrapper that
records a span.  A span's self time is its duration minus the time covered
by the spans opened inside it.  Nothing inside the program is changed, and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, module that defines it, attribute name)
FUNCTIONS = [
    ("exact.factorize", "exact", "factorize"),
    ("exact.divisors", "exact", "divisors"),
    ("exact.rational_roots", "exact", "rational_roots"),
    ("exact.cubic_roots", "exact", "integer_roots_monic_cubic"),
    ("curves.point_order", "curves", "point_order"),
    ("torsion.torsion_points", "torsion", "torsion_points"),
    ("thue.detect", "thue", "detect"),
    ("thue.order_n_points", "thue", "order_n_points"),
    ("thue.generate_curve", "thue", "generate_curve"),
    ("cli.main", "cli", "main"),
]
MODULES = ("exact", "curves", "torsion", "tate", "families", "thue", "bounds", "records", "cli")

COUNTS = [
    "exact.factorize.calls", "exact.factorize.incomplete",
    "exact.divisors.calls", "exact.divisors.items",
    "exact.rational_roots.calls", "exact.rational_roots.fallbacks",
    "exact.cubic_roots.calls",
    "curves.point_order.calls",
    "torsion.torsion_points.calls", "torsion.cache.hits", "torsion.cache.misses",
    "torsion.unavailable",
    "thue.detect.calls", "thue.root_cache.hits",
    "thue.order_n_points.calls", "thue.generate_curve.calls",
    "records.write.calls", "records.read.calls", "records.bytes_out",
    "cli.main.calls",
]
TIMES = [
    "exact.factorize.self_s", "exact.divisors.self_s", "exact.rational_roots.self_s",
    "exact.sympy.self_s", "exact.cubic_roots.self_s", "curves.point_order.self_s",
    "torsion.torsion_points.self_s", "thue.detect.self_s", "thue.order_n_points.self_s",
    "thue.generate_curve.self_s", "records.write.self_s", "records.read.self_s",
    "cli.main.self_s",
]


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self._children = []      # time covered by child spans, one entry per open span
        self._undo = []          # (owner, attribute, original value)
        self._detect_ab_nonzero = 0
        self._thue_root_searches = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, t0)
                if after is not None:
                    after(args, None, exc)
                raise
            self._close(name, t0)
            if after is not None:
                after(args, result, None)
            return result

        return wrapper

    def _close(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._children.pop()
        self.counts[name + ".calls"] += 1
        self.self_s[name + ".self_s"] += dt - child
        if self._children:
            self._children[-1] += dt

    # -- per-function extras -------------------------------------------------

    def _after_factorize(self, args, result, exc):
        if result is not None and result[1] != 1:
            self.counts["exact.factorize.incomplete"] += 1

    def _after_divisors(self, args, result, exc):
        if result is not None:
            self.counts["exact.divisors.items"] += len(result)

    def _after_torsion_points(self, args, result, exc):
        if exc is not None and type(exc).__name__ == "OracleUnavailableError":
            self.counts["torsion.unavailable"] += 1

    def _after_detect(self, args, result, exc):
        c = args[0]
        if c.A != 0 and c.B != 0:
            self._detect_ab_nonzero += 1

    def _after_thue_roots(self, args, result, exc):
        self._thue_root_searches += 1

    def _after_write(self, args, result, exc):
        if result is not None:
            self.counts["records.bytes_out"] += len(result)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        mods = [package] + [getattr(package, m) for m in MODULES if hasattr(package, m)]
        extras = {
            "exact.factorize": self._after_factorize,
            "exact.divisors": self._after_divisors,
            "torsion.torsion_points": self._after_torsion_points,
            "thue.detect": self._after_detect,
        }
        oracle = package.torsion.torsion_points
        self._oracle_cache = getattr(oracle, "cache_info", None)
        self._cache_start = self._oracle_cache() if self._oracle_cache else None
        for name, home, attr in FUNCTIONS:
            original = getattr(getattr(package, home), attr)
            for mod in mods:
                if mod.__dict__.get(attr) is not original:
                    continue
                after = extras.get(name)
                if name == "exact.rational_roots" and mod is package.thue:
                    after = self._after_thue_roots
                self._replace(mod, attr, self._span(name, original, after))

        record = package.records.CurveRecord
        self._replace(record, "to_json_line",
                      self._span("records.write", record.__dict__["to_json_line"],
                                 self._after_write))
        read = record.__dict__["from_json_line"].__func__
        self._replace(record, "from_json_line", classmethod(self._span("records.read", read)))

        # the program's only entry into sympy; present once the lazy import ran
        polytools = sys.modules.get("sympy.polys.polytools")
        if polytools is not None:
            poly = polytools.Poly
            self._replace(poly, "factor_list",
                          self._span("exact.sympy", poly.__dict__["factor_list"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float, completed: int) -> dict:
        counts = dict(self.counts)
        counts["exact.rational_roots.fallbacks"] = counts.pop("exact.sympy.calls", 0)
        counts["thue.root_cache.hits"] = self._detect_ab_nonzero - self._thue_root_searches
        if self._oracle_cache is not None:
            end = self._oracle_cache()
            counts["torsion.cache.hits"] = end.hits - self._cache_start.hits
            counts["torsion.cache.misses"] = end.misses - self._cache_start.misses
        out = {}
        for name in COUNTS:
            unit = "bytes" if name.endswith("bytes_out") else "count"
            out[name] = {"value": counts.get(name, 0), "unit": unit}
        for name in TIMES:
            out[name] = {"value": self.self_s.get(name, 0.0), "unit": "s"}
        spanned = sum(self.self_s.values())
        out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        out["trace.span_share"] = {"value": spanned / wall_s, "unit": "share"}
        out["trace.throughput_ops_s"] = {"value": completed / wall_s, "unit": "ops/s"}
        return out
