from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

import pga.perm
from pga.corpus import builtin_family
from pga.errors import CapExceededError, PgaError
from pga.fixity import (
    any_derangement,
    first_prime_derangement,
    fixity,
    is_elusive,
    prime_fix_profile,
)
from pga.group import PermGroup
from pga.perm import Permutation
from pga.structure import normal_subgroups

from oracles import fixed_count, naive_closure
from test_closure import product_wreath_s2, wreath


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def group(family, *params):
    return builtin_family(family, list(params)).group


def direct_product(H, K):
    """H x K in product action on H.degree * K.degree points,
    (i, j) -> i*m + j with m = K.degree."""
    m = K.degree
    n = H.degree * m
    gens = [Permutation([h[x // m] * m + x % m for x in range(n)]) for h in H.generators]
    gens += [Permutation([x - x % m + k[x % m] for x in range(n)]) for k in K.generators]
    return PermGroup(n, gens)


# small transitive groups, each with its order and fixity
CLOSED_FORM_FACTORS = [
    (group("symmetric", 3), 6, 1),
    (group("symmetric", 4), 24, 2),
    (group("alternating", 4), 12, 1),
    (group("cyclic", 4), 4, 0),
    (group("cyclic", 5), 5, 0),
    (group("dihedral", 5), 10, 1),
    (group("frobenius", 5, 4), 20, 1),
]


class TestFixity:
    def test_sym4(self):
        result = fixity(group("symmetric", 4))
        assert result.fixity == 2
        assert result.witness.cycle_type() == (1, 1, 2)

    def test_regular_cyclic_is_zero(self):
        assert fixity(group("cyclic", 5)).fixity == 0

    def test_dihedral5_is_one(self):
        assert fixity(group("dihedral", 5)).fixity == 1

    def test_trivial_group_rejected(self):
        with pytest.raises(CapExceededError):
            fixity(PermGroup(3))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            fixity(group("symmetric", 6), cap=100)

    def test_symmetric_fixity_is_degree_minus_two(self):
        for n in range(3, 9):
            assert fixity(group("symmetric", n)).fixity == n - 2

    def test_witness_attains_fixity_by_scan(self):
        G = group("dihedral", 6)
        result = fixity(G)
        counts = [fixed_count(e) for e in naive_closure([g.images for g in G.generators])]
        counts.remove(G.degree)  # the identity
        assert result.fixity == max(counts)
        assert len(result.witness.fixed_points()) == result.fixity


class TestClosedForms:
    """Orders and fixities of product constructions, from H on a set D
    and K on a set G, against the class table: H x K in product action
    has fixity max(f_H |G|, f_K |D|); H wr S2 in product action on D x D
    has fixity max(f_H, 1) |D|; H wr K imprimitive on D x G has fixity
    |D| (|G| - 1) + f_H."""

    def test_factors(self):
        for H, order, fix in CLOSED_FORM_FACTORS:
            assert (H.order(), fixity(H).fixity) == (order, fix)

    def test_direct_product(self):
        for (H, o_h, f_h), (K, o_k, f_k) in combinations_with_replacement(CLOSED_FORM_FACTORS, 2):
            G = direct_product(H, K)
            assert G.order() == o_h * o_k
            assert fixity(G).fixity == max(f_h * K.degree, f_k * H.degree)

    def test_product_action_wreath_s2(self):
        for H, o_h, f_h in CLOSED_FORM_FACTORS:
            G = product_wreath_s2(H)
            assert G.order() == 2 * o_h**2
            assert fixity(G).fixity == max(f_h, 1) * H.degree

    def test_imprimitive_wreath(self):
        tried = 0
        for (H, o_h, f_h), (K, o_k, _) in product(CLOSED_FORM_FACTORS, repeat=2):
            order = o_h**K.degree * o_k
            if order > 10**5:
                continue
            G = wreath(H.degree, H.generators, K.degree, K.generators)
            assert G.order() == order
            assert fixity(G).fixity == H.degree * (K.degree - 1) + f_h
            tried += 1
        assert tried == 26


class TestPrimeFixProfile:
    def test_sym4(self):
        profile = prime_fix_profile(group("symmetric", 4))
        assert profile[2] == {0, 2}
        assert profile[3] == {1}

    def test_regular_cyclic6(self):
        profile = prime_fix_profile(group("cyclic", 6))
        assert profile == {2: {0}, 3: {0}}

    def test_m11(self, corpus_by_name):
        # involutions fix 4 points; the derangements of 2-power order have order 4 or 8
        profile = prime_fix_profile(corpus_by_name["m11_12"].group)
        assert profile == {2: {0, 4}, 3: {3}, 5: {2}, 11: {1}}

    def test_cauchy_every_prime_has_elements(self, corpus_entries):
        from pga.structure import factorize

        for entry in corpus_entries:
            profile = prime_fix_profile(entry.group)
            for p in factorize(entry.group.order()).primes:
                assert profile.get(p), entry.name


class TestPrimeOrderDerangement:
    def test_sym3_order3(self):
        g = first_prime_derangement(group("symmetric", 3))
        assert g is not None
        assert g.order() == 3
        assert not g.fixed_points()

    def test_sym3_order2_absent(self):
        # every involution of S3 fixes a point
        assert prime_fix_profile(group("symmetric", 3))[2] == {1}

    def test_m11_all_primes_absent(self, corpus_by_name):
        G = corpus_by_name["m11_12"].group
        assert is_elusive(G)
        assert first_prime_derangement(G) is None

    def test_returned_element_is_semiregular(self, corpus_entries):
        for entry in corpus_entries:
            g = first_prime_derangement(entry.group)
            if g is not None:
                p = g.order()
                assert g.cycle_type() == (p,) * (entry.group.degree // p), entry.name


class TestElusive:
    def test_regular_cyclic_not_elusive(self):
        assert not is_elusive(group("cyclic", 6))

    def test_sym3_not_elusive(self):
        assert not is_elusive(group("symmetric", 3))

    def test_m11_is_elusive(self, corpus_by_name):
        assert is_elusive(corpus_by_name["m11_12"].group)

    def test_intransitive_rejected(self):
        with pytest.raises(PgaError, match="elusiveness is defined for transitive groups"):
            is_elusive(PermGroup(3, [perm("(0 1)", 3)]))

    def test_degree_one_is_not_elusive(self):
        assert not is_elusive(group("cyclic", 1))

    def test_m11_is_the_only_elusive_corpus_group(self, corpus_entries):
        elusive = [e.name for e in corpus_entries if is_elusive(e.group)]
        assert elusive == ["m11_12"]


class TestRegularAndFrobenius:
    def test_fixity_zero_iff_regular(self, corpus_entries):
        # every corpus group is transitive, so it is regular iff |G| = n
        for entry in corpus_entries:
            G = entry.group
            assert (fixity(G).fixity == 0) == (G.order() == G.degree), entry.name

    def test_frobenius(self):
        # Frobenius: transitive, not regular, and fixity 1
        for G in (group("dihedral", 5), group("frobenius", 7, 3)):
            assert G.order() != G.degree and fixity(G).fixity == 1
        assert fixity(group("symmetric", 4)).fixity == 2
        assert fixity(group("cyclic", 4)).fixity == 0


class TestSemiregularSubgroup:
    def test_cases(self):
        # a subgroup's semiregularity is read off its own normal-subgroup record
        def semiregular(H):
            return normal_subgroups(H)[-1].is_semiregular

        assert semiregular(PermGroup(4, [perm("(0 1)(2 3)", 4)]))
        assert not semiregular(PermGroup(3, [perm("(0 1)", 3)]))
        assert semiregular(group("elem_abelian", 2, 2))
        assert semiregular(PermGroup(2))


class TestAnyDerangement:
    def test_every_nontrivial_transitive_corpus_group_has_one(self, corpus_entries):
        # classical: a transitive group on more than one point has a derangement
        for entry in corpus_entries:
            g = any_derangement(entry.group)
            assert g is not None, entry.name
            assert not g.fixed_points(), entry.name


class TestOneCycleWalkPerRepresentative:
    def test_symmetric_8(self, corpus_by_name, monkeypatch):
        # once the class table exists, the fixity functions and the lattice
        # read each representative's cycle type, which it computes once
        G = PermGroup(8, [Permutation(g.images) for g in corpus_by_name["symmetric_8"].group.generators])
        reps = {id(rep.images) for rep, _ in G.conjugacy_classes()}
        walks = Counter()
        walk = pga.perm._cycle_type

        def counted(images):
            walks[id(images)] += 1
            return walk(images)

        monkeypatch.setattr(pga.perm, "_cycle_type", counted)
        fixity(G)
        prime_fix_profile(G)
        is_elusive(G)
        any_derangement(G)
        first_prime_derangement(G)
        normal_subgroups(G)
        assert len(reps) == 22
        assert {key: walks[key] for key in reps} == dict.fromkeys(reps, 1)
