"""Unit tests for the constraint data model and accuracy scoring."""

from repro.core.accuracy import (
    score_accuracy,
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_value_rel,
)
from repro.core.constraints import (
    BasicTypeConstraint,
    ConstraintKind,
    ConstraintSet,
    ControlDepConstraint,
    EnumRangeConstraint,
    NumericRangeConstraint,
    ValueRelConstraint,
)
from repro.lang import types as ct
from repro.lang.source import Location

LOC = Location("t.c", 1, 1)


class TestNumericRange:
    def test_contains(self):
        c = NumericRangeConstraint("p", LOC, valid_lo=4, valid_hi=255)
        assert c.contains(4) and c.contains(255) and c.contains(100)
        assert not c.contains(3) and not c.contains(256)

    def test_unbounded_sides(self):
        c = NumericRangeConstraint("p", LOC, valid_lo=None, valid_hi=10)
        assert c.contains(-(10**9))
        assert not c.contains(11)

    def test_describe_mentions_bounds(self):
        c = NumericRangeConstraint("p", LOC, valid_lo=1, valid_hi=2)
        assert "[1, 2]" in c.describe()


class TestEnumRange:
    def test_case_insensitive_contains(self):
        c = EnumRangeConstraint("p", LOC, values=("on", "off"), case_sensitive=False)
        assert c.contains("ON")
        assert not c.contains("maybe")

    def test_case_sensitive_contains(self):
        c = EnumRangeConstraint("p", LOC, values=("on",), case_sensitive=True)
        assert not c.contains("ON")
        assert c.contains("on")


class TestValueRel:
    def test_normalized_flips_op(self):
        c = ValueRelConstraint("z_param", LOC, op="<", other_param="a_param")
        n = c.normalized()
        assert (n.param, n.op, n.other_param) == ("a_param", ">", "z_param")

    def test_normalized_stable_when_ordered(self):
        c = ValueRelConstraint("a", LOC, op="<", other_param="b")
        assert c.normalized() is c


class TestConstraintSet:
    def test_grouping_accessors(self):
        cs = ConstraintSet("sys")
        cs.add(BasicTypeConstraint("a", LOC, ct.INT))
        cs.add(NumericRangeConstraint("a", LOC, valid_lo=1))
        cs.add(ControlDepConstraint("b", LOC, dep_param="a", op="!=", value=0))
        assert len(cs.basic_types()) == 1
        assert len(cs.ranges()) == 1
        assert len(cs.control_deps()) == 1
        assert {c.param for c in cs.for_param("a")} == {"a"}
        kinds = [c.kind for c in cs]
        assert kinds.count(ConstraintKind.BASIC_TYPE) == 1
        assert cs.parameters == {"a", "b"}


class TestAccuracyScoring:
    def test_true_positive_and_false_positive(self):
        cs = ConstraintSet("sys")
        cs.add(BasicTypeConstraint("a", LOC, ct.INT))
        cs.add(BasicTypeConstraint("b", LOC, ct.INT))  # wrong: truth says string
        truth = [truth_basic("a", "int"), truth_basic("b", "string")]
        report = score_accuracy("sys", cs, truth)
        assert report.accuracy("basic") == 0.5
        assert len(report.false_positives) == 1

    def test_string_normalization(self):
        from repro.lang.types import STRING

        cs = ConstraintSet("sys")
        cs.add(BasicTypeConstraint("a", LOC, STRING))
        report = score_accuracy("sys", cs, [truth_basic("a", "string")])
        assert report.accuracy("basic") == 1.0

    def test_value_rel_symmetric_match(self):
        cs = ConstraintSet("sys")
        cs.add(ValueRelConstraint("min", LOC, op="<", other_param="max"))
        report = score_accuracy("sys", cs, [truth_value_rel("max", "min")])
        assert report.accuracy("value_rel") == 1.0

    def test_ctrl_dep_keyed_on_pair(self):
        cs = ConstraintSet("sys")
        cs.add(ControlDepConstraint("q", LOC, dep_param="p", op="!=", value=0))
        report = score_accuracy("sys", cs, [truth_ctrl_dep("q", "p")])
        assert report.accuracy("ctrl_dep") == 1.0

    def test_overall_aggregates(self):
        cs = ConstraintSet("sys")
        cs.add(BasicTypeConstraint("a", LOC, ct.INT))
        cs.add(NumericRangeConstraint("a", LOC, valid_lo=0))
        report = score_accuracy(
            "sys", cs, [truth_basic("a", "int"), truth_range("a")]
        )
        assert report.overall() == 1.0

    def test_empty_is_none(self):
        report = score_accuracy("sys", ConstraintSet("sys"), [])
        assert report.overall() is None
        assert report.accuracy("basic") is None
