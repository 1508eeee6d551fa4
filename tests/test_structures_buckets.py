"""Unit tests for DegreeBuckets (the peeling substrate)."""

import random

import pytest

from repro.structures.buckets import DegreeBuckets


class TestDegreeBuckets:
    def test_pop_min_order(self):
        b = DegreeBuckets({"a": 2, "b": 0, "c": 1})
        assert b.pop_min() == ("b", 0)
        assert b.pop_min() == ("c", 1)
        assert b.pop_min() == ("a", 2)
        with pytest.raises(KeyError):
            b.pop_min()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            DegreeBuckets({"a": -1})

    def test_decrease_moves_bucket(self):
        b = DegreeBuckets({"a": 3, "b": 1})
        assert b.decrease("a") == 2
        assert b.degree_of("a") == 2
        assert b.pop_min() == ("b", 1)
        assert b.pop_min() == ("a", 2)

    def test_decrease_below_zero_rejected(self):
        b = DegreeBuckets({"a": 0})
        with pytest.raises(ValueError):
            b.decrease("a")

    def test_decrease_resets_min_pointer(self):
        b = DegreeBuckets({"a": 5, "b": 5})
        first, _ = b.pop_min()  # advances the pointer to 5
        survivor = "b" if first == "a" else "a"
        b.decrease(survivor)
        b.decrease(survivor)
        assert b.pop_min() == (survivor, 3)

    def test_remove(self):
        b = DegreeBuckets({"a": 2, "b": 3})
        assert b.remove("a") == 2
        assert "a" not in b
        assert len(b) == 1

    def test_min_degree(self):
        b = DegreeBuckets({"a": 4, "b": 2})
        assert b.min_degree() == 2
        b.remove("b")
        assert b.min_degree() == 4
        b.remove("a")
        assert b.min_degree() is None

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

    def test_full_peel_matches_sorted_degrees(self):
        degrees = {i: (i * 7) % 11 for i in range(60)}
        b = DegreeBuckets(degrees)
        peeled = []
        while b:
            peeled.append(b.pop_min()[1])
        assert peeled == sorted(degrees.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_peel_min_matches_a_pop_min_loop(self, seed):
        """``peel_min`` writes the bucket moves out for speed; it must
        remove vertices in the sequence ``pop_min`` and ``decrease``
        give, which every k-order built by the small policy follows."""
        rng = random.Random(seed)
        n = 20 + 30 * seed
        adj = {v: set() for v in range(n)}
        for _ in range(3 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        adj["iso"] = set()
        degrees = {v: len(nbrs) for v, nbrs in adj.items()}
        loop, expected = DegreeBuckets(degrees), []
        while loop:
            vertex, degree = loop.pop_min()
            expected.append((vertex, degree))
            for w in adj[vertex]:
                if w in loop:
                    loop.decrease(w)
        peel = DegreeBuckets(degrees)
        assert list(peel.peel_min(adj)) == expected
        assert not peel and peel.min_degree() is None
