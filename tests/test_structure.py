from collections import Counter
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import pga.structure as structure
from pga.corpus import builtin_family
from pga.errors import PgaError
from pga.group import PermGroup, StabilizerChain
from pga.perm import Permutation
from pga.structure import (
    abelian_invariants,
    derived_subgroup,
    factorize,
    is_abelian,
    is_prime,
    is_solvable,
    normal_closure,
    normal_subgroups,
)

from oracles import all_subgroups, element_order, fixed_count, inverse, is_normal, mul, naive_closure
from test_classes import class_table_groups, naive_elements, small_groups  # fixtures
from test_group import random_groups


SMALL_PRIMES = [p for p in range(2, 151) if all(p % d for d in range(2, p))]


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def own_invariants(G):
    """Abelian invariants of G from its own class table."""
    return abelian_invariants(G, G.conjugacy_classes())


def group(family, *params):
    return builtin_family(family, list(params)).group


def cyclic_wreath(m, k):
    """C_m wr C_k on m*k points: an m-cycle on the first block of m points,
    and a k-cycle of the blocks."""
    n = m * k
    base = Permutation([(x + 1) % m if x < m else x for x in range(n)])
    top = Permutation([(x + m) % n for x in range(n)])
    return PermGroup(n, [base, top])


def closure_oracle(G, seeds):
    """The elements of the normal closure of the seeds (image tuples) by
    brute force: the subgroup generated by every conjugate g^-1 s g of a
    seed s by an element g of G, regrown by each conjugate not yet in it."""
    gens, N = [], {tuple(range(G.degree))}
    for g in sorted(naive_elements(G)):
        g_inv = inverse(g)
        for s in seeds:
            c = mul(mul(g_inv, s), g)
            if c not in N:
                gens.append(c)
                N = naive_closure(gens)
    return N


def assert_irredundant(N):
    """Each generator of N lies outside the group of the generators before it."""
    for i, g in enumerate(N.generators):
        assert not PermGroup(N.degree, N.generators[:i]).contains(g), i


def closure_elements(G, seeds):
    N = normal_closure(G, [Permutation(s) for s in seeds])
    return {g.images for g in N.elements()}


class TestFactorize:
    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_m11_order(self):
        f = factorize(7920)
        assert f.factors == ((2, 4), (3, 2), (5, 1), (11, 1))
        reconstructed = 1
        for p, e in f.factors:
            reconstructed *= p**e
        assert reconstructed == 7920

    def test_one(self):
        assert factorize(1).factors == ()

    @staticmethod
    def assert_round_trip(n, expected):
        f = factorize(n)
        assert f.value == n
        assert f.factors == tuple(sorted(expected.items()))
        assert all(is_prime(p) for p in f.primes)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 12), max_size=8))
    def test_round_trip_prime_power_products(self, expected):
        n = 1
        for p, e in expected.items():
            n *= p**e
        self.assert_round_trip(n, expected)

    def test_round_trip_factorials(self):
        # Legendre: n! holds p to the power sum of n // p**i over i >= 1
        for n in range(1, 145):
            expected = {}
            for p in SMALL_PRIMES:
                q, e = p, 0
                while q <= n:
                    e += n // q
                    q *= p
                if e:
                    expected[p] = e
            self.assert_round_trip(factorial(n), expected)

    def test_is_prime_matches_a_sieve(self):
        sieve = [True] * 10_000
        sieve[0] = sieve[1] = False
        for p in range(2, 100):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
        assert [n for n in range(-3, 10_000) if is_prime(n)] == [n for n, s in enumerate(sieve) if s]


class TestDerivedSeries:
    def test_sym3_derived_is_alt3(self):
        assert derived_subgroup(group("symmetric", 3)).order() == 3

    def test_abelian_derived_trivial(self):
        assert derived_subgroup(group("cyclic", 4)).order() == 1

    def test_alt5_is_perfect(self):
        D = derived_subgroup(group("alternating", 5))
        assert D.order() == 60

    def test_derived_subgroup_is_normal(self):
        for g in ("symmetric", "dihedral"):
            G = group(g, 4)
            D = derived_subgroup(G)
            for d in D.generators:
                for s in G.generators:
                    assert D.contains(s.inverse() * d * s)

    def test_quotient_abelian_certificate(self):
        # all generator-pair commutators of G lie in the derived subgroup
        G = group("symmetric", 4)
        D = derived_subgroup(G)
        for a in G.generators:
            for b in G.generators:
                assert D.contains(a.inverse() * b.inverse() * a * b)


class TestSolvable:
    def test_cases(self):
        assert is_solvable(group("symmetric", 4))
        assert not is_solvable(group("alternating", 5))
        assert is_solvable(PermGroup(3))
        assert not is_solvable(group("symmetric", 5))
        assert is_solvable(group("frobenius", 7, 3))


class TestAbelian:
    def test_cases(self):
        assert is_abelian(group("cyclic", 4))
        assert not is_abelian(group("symmetric", 3))
        assert is_abelian(PermGroup(2))


class TestCyclic:
    def test_cases(self):
        # the whole group is the last record of its own normal-subgroup listing
        def cyclic(G):
            return normal_subgroups(G)[-1].is_cyclic

        assert cyclic(group("cyclic", 6))
        assert not cyclic(group("elem_abelian", 2, 2))
        assert cyclic(PermGroup(2))


class TestElementaryAbelian:
    def test_cases(self):
        # elementary abelian of order p**k means invariants (p,) * k
        assert own_invariants(group("elem_abelian", 2, 2)) == (2, 2)
        G = PermGroup(6, [perm("(0 1 2)", 6), perm("(3 4 5)", 6)])
        assert own_invariants(G) == (3, 3)
        assert own_invariants(group("cyclic", 4)) == (4,)


class TestAbelianInvariants:
    def test_klein(self):
        assert own_invariants(group("elem_abelian", 2, 2)) == (2, 2)

    def test_cyclic6(self):
        assert own_invariants(group("cyclic", 6)) == (6,)

    def test_z2_times_z4_regular(self):
        # regular action of Z2 x Z4 on 8 points: 3 involutions + identity
        z2 = perm("(0 4)(1 5)(2 6)(3 7)", 8)
        z4 = perm("(0 1 2 3)(4 5 6 7)", 8)
        G = PermGroup(8, [z2, z4])
        assert G.order() == 8
        involutions = [g for g in G.elements() if g.order() == 2]
        assert len(involutions) == 3
        assert own_invariants(G) == (2, 4)

    def test_rejects_nonabelian(self):
        with pytest.raises(PgaError, match="abelian_invariants needs an abelian group"):
            own_invariants(group("symmetric", 3))

    def test_product_and_divisibility(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            if not is_abelian(G):
                continue
            inv = own_invariants(G)
            product = 1
            for d in inv:
                product *= d
            assert product == G.order(), entry.name
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0, entry.name


class TestNormalClosure:
    def test_klein_inside_sym4(self):
        G = group("symmetric", 4)
        N = normal_closure(G, [perm("(0 1)(2 3)", 4)])
        assert N.order() == 4

    def test_transposition_generates_everything(self):
        G = group("symmetric", 4)
        assert normal_closure(G, [perm("(0 1)", 4)]).order() == 24

    def test_empty_seed(self):
        assert normal_closure(group("symmetric", 4), []).order() == 1

    def test_seeds_from_an_iterator(self):
        G = group("symmetric", 4)
        seeds = [Permutation.identity(4), perm("(0 1)(2 3)", 4), perm("(0 1)(2 3)", 4), perm("(1 2 3)", 4)]
        N, M = normal_closure(G, iter(seeds)), normal_closure(G, seeds)
        assert [g.images for g in N.generators] == [g.images for g in M.generators]
        assert N.order() == M.order() == 12

    def test_rejects_foreign_elements(self):
        with pytest.raises(PgaError, match="is not an element of the group"):
            normal_closure(group("alternating", 4), [perm("(0 1)", 4)])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_brute_force_closure(self, data):
        G = data.draw(random_groups(max_gens=4))
        seeds = data.draw(st.lists(st.sampled_from(sorted(naive_elements(G))), max_size=3))
        assert closure_elements(G, seeds) == closure_oracle(G, seeds)

    def test_redundant_seeds_are_left_out(self):
        # the third involution of the Klein group is the product of the first two
        G = group("symmetric", 4)
        seeds = [perm(c, 4) for c in ("(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)")]
        N = normal_closure(G, seeds)
        assert N.order() == 4
        assert_irredundant(N)
        # S4's three commutators of its Coxeter generators: A4 needs two
        D = derived_subgroup(PermGroup(4, [perm("(0 1)", 4), perm("(1 2)", 4), perm("(2 3)", 4)]))
        assert D.order() == 12
        assert_irredundant(D)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_generator_enlarges_the_group_before_it(self, data):
        G = data.draw(random_groups(max_gens=4))
        seeds = data.draw(st.lists(st.sampled_from(sorted(naive_elements(G))), max_size=4))
        N = normal_closure(G, [Permutation(s) for s in seeds])
        if N is not G:  # G itself keeps its own generators
            assert_irredundant(N)

    @pytest.mark.parametrize("n", [4, 5])
    def test_closure_that_is_the_group_stops_with_the_group(self, n):
        # a transposition's conjugates pass |S_n| / 2 before they are all met
        G = group("symmetric", n)
        seed = perm("(0 1)", n)
        assert normal_closure(G, [seed]) is G
        assert closure_elements(G, [seed.images]) == closure_oracle(G, [seed.images])

    @pytest.mark.parametrize("n", [4, 5])
    def test_closure_of_index_two_is_grown_in_full(self, n):
        # A_n is exactly half of S_n, which does not pass |G| / 2
        G = group("symmetric", n)
        seed = perm("(0 1 2)", n)
        N = normal_closure(G, [seed])
        assert N is not G and N.order() == factorial(n) // 2
        assert closure_elements(G, [seed.images]) == closure_oracle(G, [seed.images])


class TestNormalSubgroups:
    def test_sym4_orders(self):
        orders = [i.order.value for i in normal_subgroups(group("symmetric", 4))]
        assert orders == [1, 4, 12, 24]

    def test_alt4_orders(self):
        orders = [i.order.value for i in normal_subgroups(group("alternating", 4))]
        assert orders == [1, 4, 12]

    def test_cyclic6_orders(self):
        orders = [i.order.value for i in normal_subgroups(group("cyclic", 6))]
        assert orders == [1, 2, 3, 6]

    def test_lagrange_on_corpus(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            order = G.order()
            for info in normal_subgroups(G):
                assert order % info.order.value == 0, entry.name

    def test_facts_need_no_chain_of_the_subgroup(self, corpus_entries, monkeypatch):
        # a listed subgroup's order and invariants come off G's class
        # table, so the only chains built are those of the 29 normal
        # closures and of the 15 new joins, whose keys need membership
        built = []
        init = StabilizerChain.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        infos = {}
        for e in corpus_entries:
            e.group.conjugacy_classes()  # G's chain and class table
            monkeypatch.setattr(StabilizerChain, "__init__", counting)
            infos[e.name] = normal_subgroups(e.group)
            monkeypatch.undo()
        assert len(built) == 44
        for name, group_infos in infos.items():
            for info in group_infos:
                H = PermGroup(info.subgroup.degree, info.subgroup.generators)
                assert info.order.value == H.order(), name

    def test_matches_brute_force_lattice_below_200(self, corpus_entries):
        # the wreath products have many normal subgroups, so most joins
        # repeat a listed subgroup and are skipped on orders and class keys
        cases = [(e.name, e.group) for e in corpus_entries if e.group.order() <= 200]
        cases += [("C2wrC4", cyclic_wreath(2, 4)), ("C3wrC3", cyclic_wreath(3, 3))]
        sizes = {}
        for name, G in cases:
            gens = [g.images for g in G.generators]
            expected = {
                sub for sub in all_subgroups(gens, G.degree) if is_normal(sub, gens)
            }
            infos = normal_subgroups(G)
            computed = {frozenset(e.images for e in i.subgroup.elements()): i for i in infos}
            assert len(computed) == len(infos), name
            assert set(computed) == expected, name
            for sub, info in computed.items():
                minimal = len(sub) > 1 and not any(len(o) > 1 and o < sub for o in expected)
                assert info.is_minimal_normal == minimal, name
                orders = [element_order(x) for x in sub]
                cyclic = len(sub) in orders
                assert info.is_cyclic == cyclic, name
                semiregular = all(fixed_count(x) == 0 for x, o in zip(sub, orders) if o > 1)
                assert info.is_semiregular == semiregular, name
                if info.is_abelian:
                    # m -> #{x : x^m = 1} determines a finite abelian group,
                    # and on Z_d1 x ... x Z_dk it is the product of gcd(m, d_i)
                    inv = info.abelian_invariants
                    assert prod(inv) == len(sub), name
                    assert all(b % a == 0 for a, b in zip(inv, inv[1:])), name
                    for m in range(1, len(sub) + 1):
                        if len(sub) % m == 0:
                            solutions = sum(1 for o in orders if m % o == 0)
                            assert solutions == prod(gcd(m, d) for d in inv), name
            sizes[name] = len(infos)
        assert (sizes["C2wrC4"], sizes["C3wrC3"]) == (13, 8)


def lattice_facts(G):
    """Every fact of G's listed normal subgroups, in listing order; the
    generators of G's own entry are left out, as the certificate lists G
    with G's generators where a built closure lists its own."""
    return [
        (
            i.order.value,
            i.is_abelian,
            i.is_cyclic,
            i.is_p_group_for,
            i.smallest_prime,
            i.abelian_invariants,
            i.is_semiregular,
            i.is_minimal_normal,
            None if i.order.value == G.order() else [g.images for g in i.subgroup.generators],
        )
        for i in normal_subgroups(G)
    ]


class TestClosureCertificate:
    """The certificate that skips closures already listed, against answers
    that do not come from it: closed forms, and the lattice built with a
    chain for every closure."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_symmetric_closed_form(self, corpus_by_name, n):
        # A_n is the only proper nontrivial normal subgroup of S_n, n >= 5
        infos = normal_subgroups(corpus_by_name[f"symmetric_{n}"].group)
        assert [i.order.value for i in infos] == [1, factorial(n) // 2, factorial(n)]
        assert [i.is_minimal_normal for i in infos] == [False, True, False]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_alternating_closed_form(self, corpus_by_name, n):
        infos = normal_subgroups(corpus_by_name[f"alternating_{n}"].group)
        assert [i.order.value for i in infos] == [1, factorial(n) // 2]
        assert [i.is_minimal_normal for i in infos] == [False, True]

    def test_m11_is_simple(self, corpus_by_name):
        infos = normal_subgroups(corpus_by_name["m11_12"].group)
        assert [i.order.value for i in infos] == [1, 7920]
        assert [i.is_minimal_normal for i in infos] == [False, True]

    def test_refused_certificate_lists_the_same_lattice(self, corpus_entries, monkeypatch):
        certified = {e.name: lattice_facts(e.group) for e in corpus_entries}
        monkeypatch.setattr(structure, "_closure_certified", lambda *args: False)
        for e in corpus_entries:
            assert lattice_facts(e.group) == certified[e.name], e.name

    def test_certificate_spares_most_closures(self, corpus_by_name, monkeypatch):
        # S8 has 21 nontrivial classes and 2 nontrivial normal subgroups;
        # a certificate that never succeeds would build all 21 closures
        built = []

        def counting(G, seeds):
            built.append(seeds)
            return normal_closure(G, seeds)

        monkeypatch.setattr(structure, "normal_closure", counting)
        normal_subgroups(corpus_by_name["symmetric_8"].group)
        assert 1 <= len(built) <= 2

    def test_corpus_builds_29_closures(self, corpus_entries, monkeypatch):
        # the figure the README gives for the corpus: a closure that is
        # the cyclic group of its representative needs no chain, and the
        # certificate's seeded stream decides which of the others do, so
        # a drift in how its uniform elements are drawn moves this count
        # even where the lattices come out the same; a recognised class
        # brings the closure found for it, which spares A8 three chains
        # and M11 two
        built = []

        def counting(G, seeds):
            built.append(G)
            return normal_closure(G, seeds)

        monkeypatch.setattr(structure, "normal_closure", counting)
        per_group = {}
        for e in corpus_entries:
            normal_subgroups(e.group)
            per_group[e.name] = sum(G is e.group for G in built)
        assert len(corpus_entries) == 35
        assert len(built) == 29
        assert (per_group["alternating_8"], per_group["m11_12"]) == (1, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refused_certificate_lists_the_same_lattice_on_small_groups(self, class_table_groups, data):
        # the certificate reads the closures of earlier classes, so the
        # lattice must not depend on which closures it spared
        G = data.draw(st.one_of(random_groups(), st.sampled_from([e.group for e in class_table_groups])))
        certified = lattice_facts(G)
        with pytest.MonkeyPatch.context() as refused:
            refused.setattr(structure, "_closure_certified", lambda *args: False)
            assert lattice_facts(G) == certified


class TestCyclicClosures:
    """A representative whose conjugates by G's generators are all its
    powers has <y> as its normal closure, listed with no certificate and
    no chain; the lattice must be the one listed without that shortcut."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_lattice_without_the_shortcut(self, class_table_groups, data):
        G = data.draw(st.one_of(random_groups(), st.sampled_from([e.group for e in class_table_groups])))
        shortcut = lattice_facts(G)
        with pytest.MonkeyPatch.context() as off:
            off.setattr(structure, "_cyclic_closure_key", lambda *args: None)
            assert lattice_facts(G) == shortcut

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_class_size_bound_rejects_only_what_the_powers_reject(self, class_table_groups, data):
        # size 0 passes the bound, so the powers decide alone
        G = data.draw(st.one_of(random_groups(), st.sampled_from([e.group for e in class_table_groups])))
        classes = G.conjugacy_classes()
        for rep, size in classes:
            full = structure._cyclic_closure_key(G, rep, 0, classes)
            o = element_order(rep.images)
            if full is not None:
                assert size <= sum(1 for k in range(o) if gcd(k, o) == 1), (rep.images, size)
            assert structure._cyclic_closure_key(G, rep, size, classes) == full

    def test_corpus_lattices_keep_their_generators(self, corpus_entries, monkeypatch):
        def listed(G):
            return [(i.order.value, [g.images for g in i.subgroup.generators]) for i in normal_subgroups(G)]

        shortcut = {e.name: listed(e.group) for e in corpus_entries}
        monkeypatch.setattr(structure, "_cyclic_closure_key", lambda *args: None)
        for e in corpus_entries:
            assert listed(e.group) == shortcut[e.name], e.name


class TestSolvabilityStop:
    def test_perfect_step_sifts_less(self, monkeypatch):
        # S5 wr S2 on 10 points is not solvable: its derived series goes
        # 28 800 > 7 200 > 3 600 = |A5 x A5|, which is perfect, and the
        # closure of A5 x A5's commutators passes half of it and stops;
        # grown in full it sifts 105 elements, with the same 15 extends,
        # one per seed or conjugate that enlarges a chain
        G = PermGroup(10, [perm("(0 1)", 10), perm("(0 1 2 3 4)", 10), perm("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)])
        calls = Counter()
        real_contains, real_extend = StabilizerChain.contains, StabilizerChain.extend

        def contains(chain, g):
            calls["contains"] += 1
            return real_contains(chain, g)

        def extend(chain, g):
            calls["extend"] += 1
            return real_extend(chain, g)

        monkeypatch.setattr(StabilizerChain, "contains", contains)
        monkeypatch.setattr(StabilizerChain, "extend", extend)
        assert not is_solvable(G)
        assert calls == {"contains": 69, "extend": 15}


def minimal_normals(G):
    return [i for i in normal_subgroups(G) if i.is_minimal_normal]


class TestMinimalNormals:
    def test_sym4(self):
        minimals = minimal_normals(group("symmetric", 4))
        assert [i.order.value for i in minimals] == [4]
        assert minimals[0].abelian_invariants == (2, 2)

    def test_alt5_is_simple(self):
        minimals = minimal_normals(group("alternating", 5))
        assert [i.order.value for i in minimals] == [60]

    def test_cyclic6(self):
        minimals = minimal_normals(group("cyclic", 6))
        assert sorted(i.order.value for i in minimals) == [2, 3]

    def test_solvable_minimals_elementary_abelian(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            if not is_solvable(G):
                continue
            for info in minimal_normals(G):
                # elementary abelian: a p-group with invariants (p,) * k
                p = info.is_p_group_for
                assert p is not None, entry.name
                assert info.abelian_invariants == (p,) * info.order.valuation(p), entry.name


class TestSubgroupInfo:
    def test_flags_consistency_on_corpus(self, corpus_entries):
        for entry in corpus_entries:
            for info in normal_subgroups(entry.group):
                if info.is_cyclic:
                    assert info.is_abelian
                    assert len(info.abelian_invariants) <= 1
                if info.is_abelian:
                    assert prod(info.abelian_invariants) == info.order.value
                if info.order.value > 1:
                    assert info.smallest_prime == info.order.factors[0][0]

    def test_semiregular_flag(self):
        infos = normal_subgroups(group("symmetric", 4))
        by_order = {i.order.value: i for i in infos}
        assert by_order[4].is_semiregular  # the Klein four acting regularly
        assert not by_order[12].is_semiregular
        assert by_order[1].is_semiregular
