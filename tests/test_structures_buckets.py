"""Unit tests for DegreeBuckets (the peeling substrate)."""

import random

import pytest

from repro.structures.buckets import DegreeBuckets


class TestDegreeBuckets:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            DegreeBuckets({"a": -1})

    def test_decrease_moves_bucket(self):
        b = DegreeBuckets({"a": 3, "b": 1})
        assert b.decrease("a") == 2
        assert b.pop_max_below(2) == ("b", 1)
        assert b.pop_max_below(3) == ("a", 2)
        assert not b

    def test_decrease_below_zero_rejected(self):
        b = DegreeBuckets({"a": 0})
        with pytest.raises(ValueError):
            b.decrease("a")

    def test_remove(self):
        b = DegreeBuckets({"a": 2, "b": 3})
        assert b.remove("a") == 2
        assert "a" not in b
        assert len(b) == 1

    def test_pop_max_below(self):
        b = DegreeBuckets({"a": 0, "b": 2, "c": 4})
        assert b.pop_max_below(4) == ("b", 2)
        assert b.pop_max_below(4) == ("a", 0)
        assert b.pop_max_below(4) is None  # only c (degree 4) remains
        assert b.pop_max_below(5) == ("c", 4)

    def test_pop_random_below_respects_bound(self):
        rng = random.Random(2)
        b = DegreeBuckets({i: i % 5 for i in range(50)})
        while True:
            item = b.pop_random_below(3, rng)
            if item is None:
                break
            assert item[1] < 3
        # Everything with degree >= 3 must remain.
        assert len(b) == len([i for i in range(50) if i % 5 >= 3])

    def test_pop_random_below_none_when_empty_range(self):
        b = DegreeBuckets({"a": 7})
        assert b.pop_random_below(3, random.Random(0)) is None
