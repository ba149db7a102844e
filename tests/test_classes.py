"""The conjugacy-class table against brute force.

The table is checked against oracles.naive_classes (every class as
{g^-1 x g} over all of G), and every fixity quantity read off its
representatives against a scan of all elements on raw image tuples.
Witnesses are compared exactly: the scan walks the elements in the
order of the group's element walk, whose set is checked against the
naive closure first.  Besides the small corpus groups, the oracle
checks a group moving few points at degrees 256 and 257, on either side
of the switch from byte strings to image tuples in the class search,
random groups of degree at most 7 with up to 4 generators and trivial
groups, and the two heaviest corpus tables are checked against the class
sizes of S_n and A_n in closed form.
"""

from math import factorial, prod

import pytest
from hypothesis import given, settings

from pga.corpus import CorpusEntry, builtin_family
from pga.errors import CapExceededError
from pga.fixity import (
    any_derangement,
    first_prime_derangement,
    fixity,
    is_elusive,
    prime_fix_profile,
)
from pga.group import PermGroup
from pga.perm import Permutation

from oracles import element_order, fixed_count, naive_classes, naive_closure
from test_group import random_groups

ORDER_LIMIT = 5040


def _primes(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]


def brute_scan(walk):
    """Every fixity quantity by looking at each element in walk order."""
    ident = tuple(range(len(walk[0])))
    out = {"max_fix": -1, "witness": None, "derangement": None}
    power_fix, prime_derangements = {}, {}
    for x in walk:
        fp = fixed_count(x)
        if x == ident:
            continue
        if fp > out["max_fix"]:
            out["max_fix"], out["witness"] = fp, x
        if fp == 0 and out["derangement"] is None:
            out["derangement"] = x
        m = element_order(x)
        primes = _primes(m)
        if fp == 0 and primes == [m]:
            prime_derangements.setdefault(m, x)  # the first of order m
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


def _s4_times_c3(degree, c3_points):
    """S4 on points 0-3 times a 3-cycle on c3_points, fixing every other point."""
    cycles = ["(0 1 2 3)", "(0 1)", "({} {} {})".format(*c3_points)]
    return PermGroup(degree, [Permutation.from_cycles(c, degree) for c in cycles])


@pytest.fixture(scope="module")
def class_table_groups(small_groups):
    """The small corpus groups, and S4 x C3 at degree 256 (byte strings,
    point 255 moved) and at degree 257 (image tuples)."""
    wide = [
        CorpusEntry(f"s4xc3_{n}", "<test>", _s4_times_c3(n, (n - 3, n - 2, n - 1)), n)
        for n in (256, 257)
    ]
    return small_groups + wide


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _centralizer_order(parts):
    """z_lambda = prod over part sizes i of i^m_i m_i!, m_i parts of size i."""
    return prod(i ** parts.count(i) * factorial(parts.count(i)) for i in set(parts))


def _cycle_type(g):
    return tuple(sorted(g.cycle_type(), reverse=True))


def _images(g):
    return None if g is None else g.images


def _walk(G):
    walk = [e.images for e in G.elements()]
    assert set(walk) == naive_closure([g.images for g in G.generators])
    assert len(walk) == G.order()
    return walk


def naive_elements(G):
    """G's elements as image tuples; naive_closure of no generators is {()}."""
    return naive_closure([g.images for g in G.generators]) if G.generators else {tuple(range(G.degree))}


def _check_against_oracle(G):
    """G's class table against oracles.naive_classes: one entry per
    class, in the order G.elements() first meets the classes, each with
    the first element of its class in that order and the class size."""
    oracle = naive_classes([g.images for g in G.generators]) if G.generators else [frozenset(naive_elements(G))]
    class_of = {x: cls for cls in oracle for x in cls}
    walk = [e.images for e in G.elements()]
    assert sorted(walk) == sorted(class_of)
    firsts = {}
    for x in walk:
        firsts.setdefault(class_of[x], x)
    assert [(rep.images, size) for rep, size in G.conjugacy_classes()] == [(x, len(c)) for c, x in firsts.items()]


class TestClassTable:
    def test_partitions_the_group_like_the_oracle(self, class_table_groups):
        for entry in class_table_groups:
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

    def test_representative_is_first_in_walk(self, class_table_groups):
        for entry in class_table_groups:
            G = entry.group
            oracle = naive_classes([g.images for g in G.generators])
            class_of = {x: i for i, cls in enumerate(oracle) for x in cls}
            firsts, seen = [], set()
            for x in _walk(G):
                if class_of[x] not in seen:
                    seen.add(class_of[x])
                    firsts.append(x)
            assert [rep.images for rep, _ in G.conjugacy_classes()] == firsts, entry.name

    @settings(max_examples=150, deadline=None)
    @given(random_groups(max_gens=4))
    def test_random_groups_match_the_oracle(self, G):
        # up to 4 generators, so the search conjugates a layer by more
        # generators in turn than any corpus group has
        _check_against_oracle(G)

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_trivial_group(self, degree):
        _check_against_oracle(PermGroup(degree))

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
        full_walk = PermGroup._element_codes

        def counted(group, cap):
            for x in full_walk(group, cap):
                walked.append(x)
                yield x

        monkeypatch.setattr(PermGroup, "_element_codes", counted)
        table = G.conjugacy_classes()
        assert len(walked) == last + 1
        assert [(rep.images, size) for rep, size in table] == expected

    def test_same_table_padded_to_200_and_300_points(self):
        tables = [_s4_times_c3(n, (4, 5, 6)).conjugacy_classes() for n in (200, 300)]
        small, wide = ([(rep.cycle_string(), size) for rep, size in t] for t in tables)
        assert len(small) == 15
        assert small == wide

    def test_symmetric_8_has_one_class_per_partition(self, corpus_by_name):
        table = corpus_by_name["symmetric_8"].group.conjugacy_classes()
        sizes = {_cycle_type(rep): size for rep, size in table}
        assert len(sizes) == len(table)
        assert sizes == {p: factorial(8) // _centralizer_order(p) for p in _partitions(8)}

    def test_alternating_8_splits_classes_of_distinct_odd_cycles(self, corpus_by_name):
        table = corpus_by_name["alternating_8"].group.conjugacy_classes()
        sizes = {}
        for rep, size in table:
            sizes.setdefault(_cycle_type(rep), []).append(size)
        want = {}
        for p in _partitions(8):
            if sum(1 for k in p if k % 2 == 0) % 2:
                continue  # an odd permutation
            s_n_size = factorial(8) // _centralizer_order(p)
            splits = len(set(p)) == len(p) and all(k % 2 for k in p)
            want[p] = [s_n_size // 2] * 2 if splits else [s_n_size]
        assert sizes == want

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
            assert profile == want["power_fix"], entry.name
            assert is_elusive(G) == (G.degree > 1 and not want["prime_derangements"]), entry.name
            first = min(want["prime_derangements"].items(), default=(None, None))[1]
            assert _images(first_prime_derangement(G)) == first, entry.name
            assert _images(any_derangement(G)) == want["derangement"], entry.name
