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


def _typed(value, kind: type = str):
    if not isinstance(value, kind):
        raise TypeError(f"not a {kind.__name__}")
    return value


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

    #: the header line of the flat CSV summary whose rows ``to_csv_row`` writes
    CSV_HEADER = "n,p,q,k,A,B,group"

    def to_csv_row(self) -> str:
        return ",".join(
            [int_to_decimal(self.n), int_to_decimal(self.p), int_to_decimal(self.q),
             str(self.k), int_to_decimal(self.curve.A), int_to_decimal(self.curve.B),
             self.group_label]
        )

    @classmethod
    def from_dict(cls, d: dict) -> "CurveRecord":
        """The record of ``d``, re-validated; a missing or ill-typed field
        raises a ``ValueError`` that names it."""
        if not isinstance(d, dict):
            raise ValueError(f"a curve record is a JSON object, not {type(d).__name__}")

        def field(name: str, parse=decimal_to_int):
            if name not in d:
                raise ValueError(f"record field {name!r} is missing")
            try:
                return parse(d[name])
            except (TypeError, AttributeError):  # a JSON value of the wrong kind
                raise ValueError(f"record field {name!r} has the wrong type") from None
            except ValueError as exc:
                raise ValueError(f"record field {name!r}: {exc}") from None

        rec = cls(
            n=field("n"),
            p=field("p"),
            q=field("q"),
            k=field("k", _decimal_to_rational),
            curve=Curve(field("A"), field("B")),
            delta=field("delta"),
            points=field("points", lambda pts: tuple(  # a list of [x, y] lists
                Point(*map(_decimal_to_rational, _typed(P, list))) for P in _typed(pts, list))),
            group_label=field("group_label", _typed),
            provenance=field("provenance", _typed),
            form=field("form", _typed),
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
