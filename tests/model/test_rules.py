"""Unit tests for design rules and DRAs."""

import math

import pytest

from repro.geometry import Point, rectangle
from repro.model import DesignRuleArea, DesignRules, RuleSet


class TestDesignRules:
    def test_defaults_positive(self):
        r = DesignRules()
        assert r.dgap > 0 and r.dobs >= 0

    def test_validates_dgap(self):
        with pytest.raises(ValueError):
            DesignRules(dgap=0)

    def test_validates_negative_dobs(self):
        with pytest.raises(ValueError):
            DesignRules(dobs=-1)

    def test_validates_negative_dprotect(self):
        with pytest.raises(ValueError):
            DesignRules(dprotect=-0.1)

    def test_validates_negative_dmiter(self):
        with pytest.raises(ValueError):
            DesignRules(dmiter=-0.1)

    def test_frozen(self):
        with pytest.raises(Exception):
            DesignRules().dgap = 1.0


class TestRuleSet:
    def make(self):
        rs = RuleSet(default=DesignRules(dgap=4))
        rs.areas.append(
            DesignRuleArea(
                region=rectangle(10, 0, 20, 10),
                rules=DesignRules(dgap=8, dprotect=5),
                name="strict",
            )
        )
        return rs

    def test_default_outside_areas(self):
        rs = self.make()
        assert rs.rules_at(Point(0, 0)).dgap == 4

    def test_area_rules_inside(self):
        rs = self.make()
        assert rs.rules_at(Point(15, 5)).dgap == 8

    def test_first_area_wins_on_overlap(self):
        rs = self.make()
        rs.areas.append(
            DesignRuleArea(rectangle(10, 0, 20, 10), DesignRules(dgap=2), "loose")
        )
        assert rs.rules_at(Point(15, 5)).dgap == 8

    def test_conservative_combination(self):
        rs = self.make()
        combo = rs.rules_for_points([Point(0, 0), Point(15, 5)])
        assert combo.dgap == 8  # max of 4 and 8
        assert combo.dprotect == 5

    def test_combination_of_empty_is_default(self):
        rs = self.make()
        assert rs.rules_for_points([]) == rs.default

    def test_distance_rules_sorted(self):
        rs = self.make()
        assert rs.distance_rules() == [4, 8]

    def test_area_contains(self):
        area = DesignRuleArea(rectangle(0, 0, 1, 1), DesignRules())
        assert area.contains(Point(0.5, 0.5))
        assert not area.contains(Point(2, 2))
