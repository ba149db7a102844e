"""The conjugacy-class table against brute force.

The table is checked against oracles.naive_classes (every class as
{g^-1 x g} over all of G), and every fixity quantity read off its
representatives against a scan of all elements on raw image tuples.
Witnesses are compared exactly: the scan walks the elements in the
order of the group's element walk, whose set is checked against the
naive closure first.
"""

import pytest

from pga.corpus import builtin_family
from pga.errors import CapExceededError
from pga.fixity import (
    any_derangement,
    first_prime_derangement,
    fixed_point_square_sum,
    fixity,
    is_elusive,
    prime_fix_profile,
)
from pga.group import StabilizerChain

from oracles import element_order, fixed_count, naive_classes, naive_closure, power

ORDER_LIMIT = 5040


def _primes(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]


def brute_scan(walk):
    """Every fixity quantity by looking at each element in walk order."""
    ident = tuple(range(len(walk[0])))
    out = {"max_fix": -1, "witness": None, "derangement": None, "square_sum": 0}
    power_fix, prime_derangements = {}, {}
    for x in walk:
        fp = fixed_count(x)
        out["square_sum"] += fp * fp
        if x == ident:
            continue
        if fp > out["max_fix"]:
            out["max_fix"], out["witness"] = fp, x
        if fp == 0 and out["derangement"] is None:
            out["derangement"] = x
        m = element_order(x)
        primes = _primes(m)
        for p in primes:
            if p not in prime_derangements:
                h = power(x, m // p)
                if fixed_count(h) == 0:
                    prime_derangements[p] = h
        if len(primes) == 1:
            power_fix.setdefault(primes[0], set()).add(fp)
    out["power_fix"] = power_fix
    out["prime_derangements"] = prime_derangements
    return out


@pytest.fixture(scope="module")
def small_groups(corpus_entries):
    groups = [e for e in corpus_entries if e.group.order() <= ORDER_LIMIT]
    assert len(groups) >= 30
    return groups


def _images(g):
    return None if g is None else g.images


def _walk(G):
    walk = [e.images for e in G.chain().iter_elements()]
    assert set(walk) == naive_closure([g.images for g in G.generators])
    assert len(walk) == G.order()
    return walk


class TestClassTable:
    def test_partitions_the_group_like_the_oracle(self, small_groups):
        for entry in small_groups:
            G = entry.group
            table = G.conjugacy_classes()
            oracle = naive_classes([g.images for g in G.generators])
            class_of = {}
            for cls in oracle:
                for x in cls:
                    class_of[x] = cls
            met = [class_of[rep.images] for rep, _ in table]
            assert sorted(map(sorted, met)) == sorted(map(sorted, oracle)), entry.name
            assert [size for _, size in table] == [len(c) for c in met], entry.name
            assert sum(size for _, size in table) == G.order(), entry.name

    def test_representative_is_first_in_walk(self, small_groups):
        for entry in small_groups:
            G = entry.group
            oracle = naive_classes([g.images for g in G.generators])
            class_of = {x: i for i, cls in enumerate(oracle) for x in cls}
            firsts, seen = [], set()
            for x in _walk(G):
                if class_of[x] not in seen:
                    seen.add(class_of[x])
                    firsts.append(x)
            assert [rep.images for rep, _ in G.conjugacy_classes()] == firsts, entry.name

    def test_walk_stops_once_every_class_is_found(self, monkeypatch):
        G = builtin_family("symmetric", [7]).group
        walk = _walk(G)
        oracle = naive_classes([g.images for g in G.generators])
        class_of = {x: cls for cls in oracle for x in cls}
        firsts = {}
        for x in walk:
            firsts.setdefault(class_of[x], x)
        expected = [(x, len(class_of[x])) for x in walk if firsts[class_of[x]] == x]
        last = walk.index(expected[-1][0])
        assert G.order() // 5 < last < G.order() - 1  # the last class starts late
        walked = []
        full_walk = StabilizerChain.iter_elements

        def counted(chain):
            for e in full_walk(chain):
                walked.append(e)
                yield e

        monkeypatch.setattr(StabilizerChain, "iter_elements", counted)
        table = G.conjugacy_classes()
        assert len(walked) == last + 1
        assert [(rep.images, size) for rep, size in table] == expected

    def test_cached_and_capped(self):
        G = builtin_family("symmetric", [5]).group
        assert G.conjugacy_classes() is G.conjugacy_classes()
        assert len(G.conjugacy_classes()) == 7
        with pytest.raises(CapExceededError):
            G.conjugacy_classes(cap=100)


class TestFixityOnRepresentatives:
    def test_every_quantity_matches_a_full_scan(self, small_groups):
        for entry in small_groups:
            G = entry.group
            want = brute_scan(_walk(G))
            result = fixity(G)
            assert result.fixity == want["max_fix"], entry.name
            assert result.witness.images == want["witness"], entry.name
            profile = prime_fix_profile(G)
            assert profile.power_fix_counts == want["power_fix"], entry.name
            assert is_elusive(G) == (G.degree > 1 and not want["prime_derangements"]), entry.name
            first = min(want["prime_derangements"].items(), default=(None, None))[1]
            assert _images(first_prime_derangement(G)) == first, entry.name
            assert _images(any_derangement(G)) == want["derangement"], entry.name
            assert fixed_point_square_sum(G) == want["square_sum"], entry.name
