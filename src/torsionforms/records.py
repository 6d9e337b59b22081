"""Persistable curve records with decimal-string JSON serialization.

Big integers are serialized as decimal strings so downstream consumers with
fixed-width numeric types can read them; records re-validate on load.  The
strings may have any number of digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .curves import Curve, Point, on_curve, point_order
from .errors import FamilyDataError
from .exact import decimal_to_int, int_to_decimal, rational_to_decimal
from .torsion import MAZUR_LABELS


def _decimal_to_rational(s: str) -> Fraction:
    """Inverse of :func:`rational_to_decimal`; raises ``ValueError`` on
    anything but ``int`` or ``int/int`` with a nonzero denominator."""
    parts = [decimal_to_int(part) for part in s.split("/", 1)]
    if parts[1:] == [0]:
        raise ValueError(f"zero denominator in {s[:40]!r}")
    return Fraction(*parts)


@dataclass(frozen=True)
class CurveRecord:
    n: int
    p: int
    q: int
    k: Fraction
    curve: Curve
    delta: int
    points: tuple[Point, ...]
    group_label: str
    provenance: str          # "generated" | "detected"
    form: str                # "ab" (direct model) | "fg6" (its 6-twist)

    def to_dict(self) -> dict:
        return {
            "n": int_to_decimal(self.n),
            "p": int_to_decimal(self.p),
            "q": int_to_decimal(self.q),
            "k": str(self.k),
            "A": int_to_decimal(self.curve.A),
            "B": int_to_decimal(self.curve.B),
            "delta": int_to_decimal(self.delta),
            "points": [[rational_to_decimal(P.x), rational_to_decimal(P.y)]
                       for P in self.points],
            "group_label": self.group_label,
            "provenance": self.provenance,
            "form": self.form,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv_row(self) -> str:
        return ",".join(
            [int_to_decimal(self.n), int_to_decimal(self.p), int_to_decimal(self.q),
             str(self.k), int_to_decimal(self.curve.A), int_to_decimal(self.curve.B),
             self.group_label]
        )

    @classmethod
    def from_dict(cls, d: dict) -> "CurveRecord":
        rec = cls(
            n=decimal_to_int(d["n"]),
            p=decimal_to_int(d["p"]),
            q=decimal_to_int(d["q"]),
            k=_decimal_to_rational(d["k"]),
            curve=Curve(decimal_to_int(d["A"]), decimal_to_int(d["B"])),
            delta=decimal_to_int(d["delta"]),
            points=tuple(Point(_decimal_to_rational(x), _decimal_to_rational(y))
                         for x, y in d["points"]),
            group_label=d["group_label"],
            provenance=d["provenance"],
            form=d["form"],
        )
        rec.validate()
        return rec

    @classmethod
    def from_json_line(cls, line: str) -> "CurveRecord":
        return cls.from_dict(json.loads(line))

    def validate(self) -> None:
        """Re-check the record's internal claims: discriminant, membership of
        every point, and exact point orders."""
        if self.curve.disc != self.delta:
            raise FamilyDataError(
                f"stored delta {int_to_decimal(self.delta)} != discriminant "
                f"{int_to_decimal(self.curve.disc)}"
            )
        if self.group_label not in MAZUR_LABELS:
            raise FamilyDataError(f"unrecognized group label {self.group_label!r}")
        for P in self.points:
            if not on_curve(self.curve, P):
                raise FamilyDataError(f"recorded point {P!r} is not on {self.curve!r}")
            order = point_order(self.curve, P)
            if order != self.n:
                raise FamilyDataError(
                    f"recorded point {P!r} has order {order}, expected "
                    f"{int_to_decimal(self.n)}"
                )
