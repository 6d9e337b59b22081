import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionforms import FamilyDataError, Witness, generate_curve, twist_point, twist_scale
from torsionforms.exact import int_to_decimal
from torsionforms.records import CurveRecord


@pytest.fixture(scope="module")
def record():
    return generate_curve(Witness(5, 1, 1, F(1)))


class TestSerialization:
    def test_all_values_are_decimal_strings(self, record):
        d = record.to_dict()
        for key in ("n", "p", "q", "A", "B", "delta"):
            int(d[key])  # parses exactly
        for x, y in d["points"]:
            int(x), int(y)
        assert d["k"] == "1"
        assert d["provenance"] == "generated"

    def test_round_trip(self, record):
        line = record.to_json_line()
        again = CurveRecord.from_json_line(line)
        assert again == record
        assert again.to_json_line() == line

    def test_csv_row(self, record):
        assert record.to_csv_row() == "5,1,1,1,-432,8208,Z/5Z"

    def test_round_trip_past_int_str_limit(self, record):
        # u = 10**900 scales B by 10**5400 and delta by 10**10800
        u = 10**900
        big = CurveRecord(
            n=record.n, p=record.p, q=record.q, k=record.k,
            curve=twist_scale(record.curve, u), delta=record.delta * u**12,
            points=tuple(twist_point(P, u) for P in record.points),
            group_label=record.group_label, provenance=record.provenance, form=record.form,
        )
        line = big.to_json_line()
        assert len(json.loads(line)["B"]) > 5000
        again = CurveRecord.from_json_line(line)
        assert again == big
        assert again.to_json_line() == line
        assert big.to_csv_row().endswith(",Z/5Z")

    def test_fractional_branch_round_trip(self):
        rec = generate_curve(Witness(7, 2, 1, F(1, 3)))
        d = rec.to_dict()
        assert d["k"] == "1/3"
        assert CurveRecord.from_dict(d) == rec


class TestValidation:
    def test_tampered_delta_rejected(self, record):
        d = record.to_dict()
        d["delta"] = str(int(d["delta"]) + 1)
        with pytest.raises(FamilyDataError):
            CurveRecord.from_dict(d)

    def test_messages_past_the_int_str_limit(self, record):
        u = 10**900
        c = twist_scale(record.curve, u)
        P = twist_point(record.points[0], u)
        tampered = dict(curve=c, delta=c.disc + 1, points=(P,))
        base = {f: getattr(record, f) for f in ("n", "p", "q", "k", "group_label",
                                                "provenance", "form")}
        with pytest.raises(FamilyDataError, match=re.escape(
                f"stored delta {int_to_decimal(c.disc + 1)} != discriminant")):
            CurveRecord(**base, **tampered).validate()
        tampered.update(delta=c.disc, points=(twist_point(P, 2),))
        with pytest.raises(FamilyDataError, match=re.escape(
                f"recorded point ({int_to_decimal(4 * P.x.numerator)}, ")):
            CurveRecord(**base, **tampered).validate()
        base["n"] = 7
        tampered.update(points=(P,))
        with pytest.raises(FamilyDataError, match="has order 5, expected 7$"):
            CurveRecord(**base, **tampered).validate()

    def test_off_curve_point_rejected(self, record):
        d = record.to_dict()
        d["points"][0] = ["1", "1"]
        with pytest.raises(FamilyDataError):
            CurveRecord.from_dict(d)

    def test_wrong_order_rejected(self, record):
        d = record.to_dict()
        d["n"] = "7"
        with pytest.raises(FamilyDataError):
            CurveRecord.from_dict(d)

    def test_bad_label_rejected(self, record):
        d = record.to_dict()
        d["group_label"] = "Z/11Z"
        with pytest.raises(FamilyDataError):
            CurveRecord.from_dict(d)

    @pytest.mark.parametrize("k", ["1/0", "1_0", "1.0", " 1", "1/3/1", ""])
    def test_malformed_k_rejected(self, k):
        d = generate_curve(Witness(5, 2, 1, F(1))).to_dict()
        d["k"] = k
        with pytest.raises(ValueError):
            CurveRecord.from_dict(d)

    @pytest.mark.parametrize("coord", [0, 1])
    def test_zero_denominator_point_rejected(self, coord):
        d = generate_curve(Witness(5, 2, 1, F(1))).to_dict()
        d["points"][0][coord] = "1/0"
        with pytest.raises(ValueError):
            CurveRecord.from_dict(d)

    @pytest.mark.parametrize("field", ["n", "p", "q", "k", "A", "B", "delta", "points",
                                       "group_label", "provenance", "form"])
    def test_missing_or_ill_typed_field_is_named(self, record, field):
        d = record.to_dict()
        del d[field]
        with pytest.raises(ValueError, match=f"record field '{field}' is missing"):
            CurveRecord.from_dict(d)
        d[field] = 5
        with pytest.raises(ValueError, match=f"record field '{field}' has the wrong type"):
            CurveRecord.from_dict(d)

    @pytest.mark.parametrize("field", ["n", "p", "q", "A", "B", "delta"])
    def test_object_in_a_number_field_is_named(self, record, field):
        # from Python 3.12 on a slice is hashable, so {}[:1] raises KeyError
        d = record.to_dict()
        d[field] = {}
        with pytest.raises(ValueError, match=f"record field '{field}' has the wrong type"):
            CurveRecord.from_dict(d)

    def test_empty_and_non_object_lines(self):
        with pytest.raises(ValueError, match="record field 'n' is missing"):
            CurveRecord.from_json_line("{}")
        with pytest.raises(ValueError, match="JSON object, not list"):
            CurveRecord.from_json_line("[]")

    def test_json_is_plain(self, record):
        parsed = json.loads(record.to_json_line())
        assert all(isinstance(v, (str, list)) for v in parsed.values())


# record lines to mutate: three orders, two forms, a fractional branch
_LINES = [generate_curve(Witness(n, p, q, k)).to_json_line()
          for n, p, q, k in [(5, 2, 1, F(1)), (7, 3, 1, F(1, 3)), (9, -3, 2, F(1))]]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=8)
    | st.sampled_from(["0", "-7", "1/0", "1/3", "Z/5Z", "generated", "ab"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_line(draw):
    line = draw(st.sampled_from(_LINES))
    if draw(st.booleans()):
        # edit the text: delete, insert or replace a few characters, mostly
        # inside the numbers, so that most lines stay JSON
        chars = list(line)
        for _ in range(draw(st.integers(1, 4))):
            digits = [i for i, c in enumerate(chars) if c.isdigit()]
            i = draw(st.sampled_from(digits) if digits and draw(st.integers(0, 3))
                     else st.integers(0, len(chars)))
            op = draw(st.sampled_from(["delete", "insert", "replace"]))
            c = draw(st.sampled_from('0123456789-/"{}[],: x\\é'))
            if op == "insert":
                chars.insert(i, c)
            elif i < len(chars):
                chars[i:i + 1] = [] if op == "delete" else [c]
        return "".join(chars)
    # edit the object: drop a field, or give it another JSON value
    d = json.loads(line)
    key = draw(st.sampled_from(sorted(d)))
    if draw(st.booleans()):
        del d[key]
    else:
        d[key] = draw(_JSON_VALUES)
    return json.dumps(d)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(line=_mutated_line())
def test_mutated_lines_raise_only_typed_errors(line):
    try:
        CurveRecord.from_json_line(line)
    except (ValueError, FamilyDataError):
        pass
