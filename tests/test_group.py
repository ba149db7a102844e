import random
from functools import reduce
from itertools import permutations as all_perms, product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from pga.errors import CapExceededError, PgaError
from pga.group import PermGroup, StabilizerChain
from pga.perm import Permutation

import oracles
from oracles import FullSiftChain, naive_closure, transversal
from test_pinned_chains import chain_digest, workload_groups


@st.composite
def random_groups(draw, max_degree=7, max_gens=3):
    n = draw(st.integers(min_value=2, max_value=max_degree))
    gens = draw(
        st.lists(
            st.permutations(list(range(n))).map(Permutation),
            min_size=1,
            max_size=max_gens,
        )
    )
    return PermGroup(n, gens)


generator_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(list(range(n))).map(Permutation), min_size=1, max_size=5)
)


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def sym4():
    return PermGroup(4, [perm("(0 1)", 4), perm("(0 1 2 3)", 4)])


def alt4():
    return PermGroup(4, [perm("(0 1 2)", 4), perm("(1 2 3)", 4)])


class TestConstruction:
    def test_sym4_order(self):
        assert sym4().order() == 24

    def test_trivial_group(self):
        G = PermGroup(5)
        assert G.order() == 1
        assert list(G.elements()) == [Permutation.identity(5)]

    def test_identity_generators_dropped(self):
        G = PermGroup(4, [perm("(0 1 2 3)", 4), Permutation.identity(4)])
        assert G.generators == (perm("(0 1 2 3)", 4),)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(PgaError, match="generator of degree 3 in a group of degree 4"):
            PermGroup(4, [perm("(0 1 2)", 3)])


class TestOrbits:
    def test_full_cycle(self):
        G = PermGroup(4, [perm("(0 1 2 3)", 4)])
        assert G.orbit(0) == {0, 1, 2, 3}

    def test_product_of_transpositions(self):
        G = PermGroup(4, [perm("(0 1)(2 3)", 4)])
        assert G.orbit(0) == {0, 1}

    def test_trivial(self):
        G = PermGroup(3)
        assert G.orbit(2) == {2}

    def test_point_out_of_range(self):
        with pytest.raises(PgaError, match="point 3 out of range"):
            PermGroup(3).orbit(3)


class TestTransitivity:
    def test_cases(self):
        assert PermGroup(5, [perm("(0 1 2 3 4)", 5)]).is_transitive()
        assert not PermGroup(3, [perm("(0 1)", 3)]).is_transitive()
        assert PermGroup(1).is_transitive()


class TestOrderAndMembership:
    def test_cyclic_order(self):
        assert PermGroup(5, [perm("(0 1 2 3 4)", 5)]).order() == 5

    def test_sym4_contains_transposition(self):
        assert sym4().contains(perm("(0 2)", 4))

    def test_alt4_excludes_odd(self):
        G = alt4()
        assert G.order() == 12
        assert not G.contains(perm("(0 1)", 4))

    def test_contains_identity(self):
        for G in (sym4(), alt4(), PermGroup(3)):
            assert G.contains(Permutation.identity(G.degree))

    def test_membership_agrees_with_closure_on_alt4(self):
        closure = naive_closure([g.images for g in alt4().generators])
        G = alt4()
        for img in all_perms(range(4)):
            assert G.contains(Permutation(img)) == (img in closure)


class TestPointStabilizer:
    def test_sym4(self):
        assert sym4().point_stabilizer(0).order() == 6

    def test_regular_cyclic(self):
        G = PermGroup(4, [perm("(0 1 2 3)", 4)])
        assert G.point_stabilizer(0).order() == 1

    def test_alt4(self):
        assert alt4().point_stabilizer(0).order() == 3

    def test_generators_fix_the_point(self):
        H = sym4().point_stabilizer(2)
        assert all(g.images[2] == 2 for g in H.generators)


class TestElements:
    def test_sym3_closed_under_composition(self):
        G = PermGroup(3, [perm("(0 1)", 3), perm("(0 1 2)", 3)])
        els = list(G.elements())
        assert len(els) == 6
        pool = {e.images for e in els}
        assert {(a * b).images for a in els for b in els} == pool

    def test_no_duplicates_and_all_members(self):
        G = sym4()
        els = list(G.elements())
        assert len({e.images for e in els}) == len(els) == 24
        assert all(G.contains(e) for e in els)

    def test_cap_exceeded_is_loud(self):
        with pytest.raises(CapExceededError):
            list(sym4().elements(cap=10))


class TestCorpusInvariants:
    def test_orbit_stabilizer(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            order = G.order()
            for point in range(G.degree):
                stab = G.point_stabilizer(point)
                assert len(G.orbit(point)) * stab.order() == order, entry.name

    def test_transitive_order_identity(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            assert G.order() == G.degree * G.point_stabilizer(0).order(), entry.name

    def test_chain_order_matches_closure_small(self, corpus_entries):
        for entry in corpus_entries:
            gens = [g.images for g in entry.group.generators]
            closure = naive_closure(gens, limit=5000)
            if closure is None:
                assert entry.group.order() > 5000, entry.name
            else:
                assert entry.group.order() == len(closure), entry.name

    def test_membership_matches_closure_degree_le_5(self, corpus_entries):
        for entry in corpus_entries:
            n = entry.group.degree
            if n > 5:
                continue
            closure = naive_closure([g.images for g in entry.group.generators])
            for img in all_perms(range(n)):
                assert entry.group.contains(Permutation(img)) == (img in closure), entry.name


class TestRandomGroupProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_groups())
    def test_chain_order_equals_closure(self, G):
        closure = naive_closure([g.images for g in G.generators] or [tuple(range(G.degree))])
        assert G.order() == len(closure)

    @settings(max_examples=60, deadline=None)
    @given(random_groups(max_degree=6))
    def test_membership_equals_closure(self, G):
        closure = naive_closure([g.images for g in G.generators] or [tuple(range(G.degree))])
        for img in all_perms(range(G.degree)):
            assert G.contains(Permutation(img)) == (img in closure)

    @settings(max_examples=80, deadline=None)
    @given(random_groups(), st.data())
    def test_orbit_stabilizer(self, G, data):
        point = data.draw(st.integers(min_value=0, max_value=G.degree - 1))
        stab = G.point_stabilizer(point)
        assert len(G.orbit(point)) * stab.order() == G.order()
        assert all(g.images[point] == point for g in stab.generators)

    @settings(max_examples=60, deadline=None)
    @given(random_groups(max_degree=6))
    def test_elements_enumeration_is_exact(self, G):
        els = list(G.elements())
        assert len({e.images for e in els}) == len(els) == G.order()


class TestM11Facts:
    def test_order_by_naive_closure(self, corpus_by_name):
        G = corpus_by_name["m11_12"].group
        closure = naive_closure([g.images for g in G.generators])
        assert len(closure) == 7920
        assert G.order() == 7920

    def test_element_enumeration_matches_closure(self, corpus_by_name):
        G = corpus_by_name["m11_12"].group
        closure = naive_closure([g.images for g in G.generators])
        assert {e.images for e in G.elements()} == closure


def stored_inverse(lvl, b):
    """The inverse of lvl's transversal element for b, read off the
    table the level stores for it."""
    n = len(lvl.codes[b][0])
    return Permutation(tuple(lvl.codes[b][1])[:n])


class TestStoredInverses:
    @settings(max_examples=80, deadline=None)
    @given(random_groups())
    def test_transversal_inverses_match_oracle(self, G):
        """Each orbit point's stored code is a permutation mapping the base
        point to it, and its stored table the inverse, padded with fixed
        points."""
        ident = tuple(range(G.degree))
        for lvl in G.chain().levels:
            for b, u in transversal(lvl).items():
                table = lvl.codes[b][1]
                assert sorted(u) == list(ident)
                assert u[lvl.point] == b
                assert tuple(table)[G.degree :] == tuple(range(G.degree, len(table)))
                u_inv = stored_inverse(lvl, b).images
                assert oracles.mul(u, u_inv) == ident
                assert sorted(u_inv) == list(ident)
                assert u_inv[b] == lvl.point


class TestStrip:
    @settings(max_examples=100, deadline=None)
    @given(random_groups(max_degree=6), st.data())
    def test_residue_matches_oracle_strip(self, G, data):
        """Members (products of the generators, transversal elements) and
        arbitrary permutations, from every start level."""
        n = G.degree
        chain = G.chain()
        levels = [(lvl.point, transversal(lvl)) for lvl in chain.levels]
        word = data.draw(st.lists(st.sampled_from((*G.generators, Permutation.identity(n))), max_size=6))
        member = Permutation.identity(n)
        for g in word:
            member = member * g
        elements = [member, *data.draw(st.lists(st.permutations(list(range(n))).map(Permutation), max_size=3))]
        elements += [Permutation(u) for _, trans in levels for u in trans.values()]
        for g in elements:
            for start in range(len(levels) + 1):
                assert chain._strip(g, start).images == oracles.strip(levels, g.images, start)
        assert chain._strip(member).is_identity()


def grown_chain(degree, gens, cls=StabilizerChain):
    """A chain built on the first generator, then grown by extend with
    each later one that is not yet a member."""
    chain = cls(degree, [g for g in gens[:1] if not g.is_identity()])
    for g in gens[1:]:
        if not chain.contains(g):
            chain.extend(g)
    return chain


class TestExtend:
    def test_element_fixing_every_base_point_appends_a_level(self):
        chain = grown_chain(4, [Permutation.identity(4), perm("(0 1)", 4)])
        assert chain.base == [0]
        chain.extend(perm("(2 3)", 4))
        assert chain.base == [0, 2]
        assert chain.order() == 4

    @settings(max_examples=120, deadline=None)
    @given(generator_lists)
    # (1 2 3) meets new orbit points whose Schreier generators with the
    # old generator (0 1) must be sifted too
    @example([perm("(0 1)", 4), perm("(1 2 3)", 4)])
    def test_matches_a_fresh_chain(self, gens):
        n = gens[0].degree
        grown = grown_chain(n, gens)
        fresh = PermGroup(n, gens).chain()
        closure = naive_closure([g.images for g in gens])
        assert grown.order() == fresh.order() == len(closure)
        for chain in (grown, fresh):
            for img in all_perms(range(n)):
                assert chain.contains(Permutation(img)) == (img in closure)
            # level i's orbit is that of the stabilizer of the base points above it
            base = chain.base
            for i, lvl in enumerate(chain.levels):
                stab = [x for x in closure if all(x[b] == b for b in base[:i])]
                assert set(lvl.codes) == {x[lvl.point] for x in stab}
                for b, u in transversal(lvl).items():
                    assert u[lvl.point] == b
                    assert (Permutation(u) * stored_inverse(lvl, b)).is_identity()


def assert_every_schreier_generator_checked(chain):
    """A complete chain records, at every level, each generator of that
    level's group as checked on the whole orbit, keyed by the generator's
    table, so extend sifts none of those Schreier generators again."""
    encode, tail, _ = chain._codec
    for i, lvl in enumerate(chain.levels):
        for s in chain.strong_generators_below(i):
            assert lvl.checked.get(encode(s.images) + tail) == len(lvl.codes), (i, s)


class TestCheckedRecord:
    @settings(max_examples=120, deadline=None)
    @given(generator_lists)
    def test_after_every_build_and_extend(self, gens):
        n = gens[0].degree
        assert_every_schreier_generator_checked(PermGroup(n, gens).chain())
        movers = [g for g in gens if not g.is_identity()]
        assert_every_schreier_generator_checked(StabilizerChain(n, movers, base_prefix=(n - 1,)))
        chain = StabilizerChain(n, [])
        for g in gens:
            if not chain.contains(g):
                chain.extend(g)
                assert_every_schreier_generator_checked(chain)

    def test_corpus_chains(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            assert_every_schreier_generator_checked(StabilizerChain(G.degree, G.generators))


def assert_same_chain(chain, expected):
    """Level by level: the base point, the own generators in order, the
    orbit points in order with the stored codes and inverse tables, and the
    checked record, in order, as the images of each generator whose table
    keys it with its count."""
    assert chain.degree == expected.degree
    assert chain.base == expected.base
    for lvl, exp in zip(chain.levels, expected.levels):
        assert [g.images for g in lvl.own_gens] == [g.images for g in exp.own_gens], lvl.point
        assert list(lvl.codes.items()) == list(exp.codes.items()), lvl.point
        n = chain.degree
        assert [(tuple(t[:n]), k) for t, k in lvl.checked.items()] == [(tuple(t[:n]), k) for t, k in exp.checked.items()]


def assert_every_schreier_generator_sifts(chain):
    """Every Schreier generator u_b s u_s(b)^-1 of a level strips to the
    identity through the levels below it, the test Schreier-Sims makes
    for a complete chain."""
    for i, lvl in enumerate(chain.levels):
        for s in chain.strong_generators_below(i):
            for b, u in transversal(lvl).items():
                h = Permutation(u) * s * stored_inverse(lvl, s.images[b])
                assert chain._strip(h, i + 1).is_identity(), (i, b, s)


class TestSchreierCutOff:
    """A level stops sifting once the generators that no sift at or below
    it left are through; the chain must be the one built by sifting every
    Schreier generator (oracles.FullSiftChain), and complete."""

    @settings(max_examples=150, deadline=None)
    @given(generator_lists)
    def test_matches_the_full_sift(self, gens):
        n = gens[0].degree
        movers = [g for g in gens if not g.is_identity()]
        for prefix in ((), (n - 1,)):
            chain = StabilizerChain(n, movers, base_prefix=prefix)
            assert_same_chain(chain, FullSiftChain(n, movers, base_prefix=prefix))
            assert_every_schreier_generator_sifts(chain)
        grown = grown_chain(n, gens)
        assert_same_chain(grown, grown_chain(n, gens, FullSiftChain))
        assert_every_schreier_generator_sifts(grown)

    @pytest.mark.parametrize("source", ["corpus", "workload_seed1", "workload_seed2"])
    def test_corpus_and_closure_workload(self, corpus_entries, source):
        if source == "corpus":
            groups = [e.group for e in corpus_entries]
        else:
            groups = workload_groups(int(source[-1]))
        for G in groups:
            n, gens = G.degree, list(G.generators)
            built = StabilizerChain(n, gens), FullSiftChain(n, gens)
            grown = grown_chain(n, gens), grown_chain(n, gens, FullSiftChain)
            for chain, expected in (built, grown):
                assert_same_chain(chain, expected)
                assert_every_schreier_generator_sifts(chain)

    def test_sift_counts_on_the_closure_workload(self, monkeypatch):
        # F(11,5)wrS2, S8wrS4, A8wrC4, C2wrC16, D5wrC6, S3wrS8 under the
        # seed-1 relabeling: the cut-off sifts 5408 Schreier generators
        # where sifting them all takes 14253
        groups = workload_groups(1)
        sift = StabilizerChain._sift
        count = [0]

        def counting(self, g, start=0):
            count[0] += 1
            return sift(self, g, start)

        monkeypatch.setattr(StabilizerChain, "_sift", counting)
        counts = {}
        for cls in (StabilizerChain, FullSiftChain):
            counts[cls] = []
            for G in groups:
                count[0] = 0
                cls(G.degree, G.generators)
                counts[cls].append(count[0])
        assert counts[StabilizerChain] == [516, 1739, 1043, 318, 358, 1434]
        assert counts[FullSiftChain] == [879, 5797, 3508, 766, 923, 2380]


def level_contents(levels):
    """Each level's base point, own generators and codes, in order."""
    return [(lvl.point, [g.images for g in lvl.own_gens], list(lvl.codes.items())) for lvl in levels]


def assert_point_stabilizer(G, point, elements):
    """G.point_stabilizer(point) has the order of the stabilizer among
    elements (all of G's), generators fixing the point, a complete chain,
    and as its levels those of G's chain on a base starting at the point,
    below the first."""
    H = G.point_stabilizer(point)
    assert H.order() == sum(1 for x in elements if x[point] == point)
    assert all(g.images[point] == point for g in H.generators)
    assert_every_schreier_generator_sifts(H.chain())
    assert level_contents(H.chain().levels) == level_contents(G._chain_on((point,)).levels[1:])


class TestPointStabilizerChain:
    @settings(max_examples=80, deadline=None)
    @given(random_groups(), st.data())
    def test_point_stabilizer_chain(self, G, data):
        point = data.draw(st.integers(min_value=0, max_value=G.degree - 1))
        closure = naive_closure([g.images for g in G.generators] or [tuple(range(G.degree))])
        assert_point_stabilizer(G, point, closure)

    def test_corpus_point_stabilizers(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            elements = [g.images for g in G.elements()]
            for point in range(G.degree):
                assert_point_stabilizer(G, point, elements)

    def test_base_point_builds_no_chain(self, corpus_entries, monkeypatch):
        # the cached chain's base starts at base[0], so the stabilizer takes
        # its levels below the first: no orbit is walked, no element drawn
        def refuse(*args):
            raise AssertionError("a chain was built")

        for entry in corpus_entries:
            G = entry.group
            G.order()
            with monkeypatch.context() as patch:
                patch.setattr(StabilizerChain, "_walk", refuse)
                patch.setattr(PermGroup, "_random_elements", refuse)
                H = G.point_stabilizer(G.chain().base[0])
            assert H.chain().levels == G.chain().levels[1:], entry.name


class TestChainOnBase:
    """PermGroup._chain_on: G's cached chain when its base begins with
    the requested points, else a chain grown from seeded elements."""

    @settings(max_examples=150, deadline=None)
    @given(random_groups(max_degree=8), st.data())
    def test_order_and_prefix_orbits(self, G, data):
        prefix = data.draw(st.lists(st.integers(min_value=0, max_value=G.degree - 1), unique=True, max_size=4))
        chain = G._chain_on(prefix)
        assert chain.base[: len(prefix)] == prefix
        assert chain.order() == G.order()
        forced = StabilizerChain(G.degree, G.generators, base_prefix=prefix)
        for lvl, expected in zip(chain.levels[: len(prefix)], forced.levels):
            assert set(lvl.codes) == set(expected.codes), lvl.point
        # each transversal element maps its level's point where it says,
        # fixing the base points above, and the chain is complete
        for i, lvl in enumerate(chain.levels):
            for b, u in transversal(lvl).items():
                assert u[lvl.point] == b and all(u[p] == p for p in chain.base[:i])
        assert_every_schreier_generator_sifts(chain)
        assert all(chain.contains(g) for g in G.generators)

    def test_cached_chain_when_its_base_begins_so(self, corpus_by_name):
        G = corpus_by_name["m11_12"].group
        assert G._chain_on(G.chain().base[:2]) is G.chain()
        assert G._chain_on(()) is G.chain()

    def test_trivial_group_and_degree_one(self):
        for n in (1, 5):
            chain = PermGroup(n)._chain_on((n - 1,))
            assert chain.base == [n - 1] and chain.order() == 1

    def test_rebased_chains_are_pinned(self, corpus_entries):
        """The chains on each group's last point, of every corpus group and
        the closure workload's groups, by the digest of
        tests/test_pinned_chains.py: the seeded elements, the residues
        installed and the order of every walk decide them."""
        groups = [e.group for e in corpus_entries] + workload_groups(1)
        digest = chain_digest(G._chain_on((G.degree - 1,)) for G in groups)
        assert digest == "288366ffdbbf6fc73bb566b25323595655886ce12bcfca5ca6cc36e4bb33a1c9"


class TestSeededSampler:
    """PermGroup._random_elements draws the codes of the elements that
    one rng.choice per level gives, deepest level first, so a re-based
    chain and the normal-closure certificate see the same elements on
    every Python version."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_draws_match_the_oracle(self, corpus_entries, seed):
        for G in [e.group for e in corpus_entries] + workload_groups(1):
            sample = G._random_elements(random.Random(seed))
            drawn = [tuple(next(sample)) for _ in range(50)]
            transversals = [transversal(lvl) for lvl in G.chain().levels]
            assert drawn == oracles.seeded_uniform_elements(G.degree, transversals, random.Random(seed), 50)


def embed(g, degree, offset):
    """g moved onto points offset .. offset + g.degree - 1 of degree
    points, every other point fixed."""
    img = list(range(degree))
    img[offset : offset + g.degree] = [q + offset for q in g.images]
    return Permutation(img)


def window(images, offset, d):
    """The images of points offset .. offset + d - 1 moved back to 0 ..
    d - 1; every other point must be fixed."""
    assert all(q == p for p, q in enumerate(images) if not offset <= p < offset + d)
    return tuple(q - offset for q in images[offset : offset + d])


def chain_in_window(chain, offset, d):
    """Base, own generators, transversal keys in order with their
    elements, and checked counts, all moved back to 0 .. d - 1."""
    return [
        (
            lvl.point - offset,
            [window(g.images, offset, d) for g in lvl.own_gens],
            [(b - offset, window(u, offset, d)) for b, u in transversal(lvl).items()],
            list(lvl.checked.values()),
        )
        for lvl in chain.levels
    ]


CODEC_DEGREES = (255, 256, 257, 300)


class TestCodecBoundary:
    """Up to degree 256 the chain carries its elements as byte strings,
    above it as image tuples; the same group padded with fixed points,
    below or above the points it moves, gets the same chain and the same
    sifts on either side."""

    @staticmethod
    def padded(G):
        for n in CODEC_DEGREES:
            for offset in (0, n - G.degree):
                yield n, offset, PermGroup(n, [embed(g, n, offset) for g in G.generators])

    def assert_matches(self, G, extra=()):
        d = G.degree
        want = chain_in_window(G.chain(), 0, d)
        for n, offset, H in self.padded(G):
            chain = H.chain()
            assert chain_in_window(chain, offset, d) == want, (n, offset)
            for lvl in chain.levels:
                assert isinstance(lvl.codes[lvl.point][0], bytes if n <= 256 else tuple), n
            levels = [(lvl.point, transversal(lvl)) for lvl in chain.levels]
            ident = tuple(range(n))
            # members, transversal elements, the elements given and one
            # moving a point outside the window, which no member does
            members = list(H.generators) + [Permutation(u) for _, trans in levels for u in trans.values()]
            members += [a * b for a in H.generators for b in H.generators]
            others = [embed(x, n, offset) for x in extra]
            swap = list(range(n))
            far = 0 if offset else n - 1
            swap[far], swap[offset] = swap[offset], swap[far]
            others.append(Permutation(swap))
            for g in members + others:
                for start in range(len(levels) + 1):
                    assert chain._strip(g, start).images == oracles.strip(levels, g.images, start)
                assert chain.contains(g) == (oracles.strip(levels, g.images) == ident)
            assert all(chain.contains(g) for g in members)
            assert not chain.contains(others[-1])

    @settings(max_examples=25, deadline=None)
    @given(random_groups(max_degree=6), st.lists(st.permutations(list(range(6))), max_size=3))
    def test_random_groups(self, G, extra):
        d = G.degree
        self.assert_matches(G, [Permutation([p for p in x if p < d]) for x in extra])

    def test_m11(self, corpus_by_name):
        self.assert_matches(corpus_by_name["m11_12"].group)

    def test_element_walk(self, corpus_by_name):
        """elements() at degree 300, on image tuples, yields the walk at
        the group's own degree, on byte strings, padding aside."""
        G = corpus_by_name["alternating_6"].group
        d = G.degree
        want = [e.images for e in G.elements()]
        assert len(want) == G.order() == 360
        for offset in (0, 300 - d):
            H = PermGroup(300, [embed(g, 300, offset) for g in G.generators])
            assert isinstance(next(H._element_codes(H.order())), tuple)
            assert [window(e.images, offset, d) for e in H.elements()] == want, offset


def walk_from_levels(G):
    """G's elements in the order _element_codes documents, built from the
    chain's levels: the products u_last * ... * u_0 of one transversal
    element per level, orbit points ascending at each level, the deepest
    level varying slowest."""
    levels = [transversal(lvl) for lvl in reversed(G.chain().levels)]
    choices = [[Permutation(trans[b]) for b in sorted(trans)] for trans in levels]
    return [reduce(mul, us, Permutation.identity(G.degree)).images for us in product(*choices)]


class TestElementWalk:
    """elements() against the walk spelled out from the chain, at the edges
    of the walk's recursion: no level, one level, and several levels on
    byte strings and on image tuples."""

    @pytest.mark.parametrize(
        "name, degree, levels",
        [("trivial", 5, 0), ("cyclic_5", 5, 1), ("alternating_6", 6, 4), ("alternating_6", 300, 4)],
    )
    def test_elements_follow_the_chain(self, corpus_by_name, name, degree, levels):
        if name == "trivial":
            G = PermGroup(degree)
        else:
            base = corpus_by_name[name].group
            G = PermGroup(degree, [embed(g, degree, degree - base.degree) for g in base.generators])
        assert len(G.chain().levels) == levels
        assert isinstance(next(G._element_codes(G.order())), bytes if degree <= 256 else tuple)
        walk = [e.images for e in G.elements()]
        assert len(walk) == G.order()
        assert walk == walk_from_levels(G)
