import random
import sys
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from pga.cli import main
from pga.closure import (
    _arc_weights,
    _color_automorphism_generators,
    _first_non_singleton,
    _individualize,
    _outside_automorphism,
    _preserves_colors,
    _principal_branch,
    _refine_pair,
    is_2_closed,
    orbitals,
    two_closure,
)
from pga.corpus import builtin_family
from pga.errors import CapExceededError
from pga.group import PermGroup, StabilizerChain
from pga.perm import Permutation
import pga.closure
import pga.group

from oracles import brute_two_closure, count_refine_pair, direct_arc_weights, pair_orbit_ids
from test_group import assert_every_schreier_generator_checked, assert_every_schreier_generator_sifts, assert_same_chain
from test_pinned_chains import workload_groups


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def group(family, *params):
    return builtin_family(family, list(params)).group


def wreath(m, inner, k, outer):
    """K wr H on m*k points: K (image tuples on m points) acts on the
    first block of m points, H (image tuples on k points) permutes the
    k blocks."""
    n = m * k
    gens = [Permutation([g[x] if x < m else x for x in range(n)]) for g in inner]
    gens += [Permutation([h[x // m] * m + x % m for x in range(n)]) for h in outer]
    return PermGroup(n, gens)


def cycle_images(m):
    return tuple((i + 1) % m for i in range(m))


def random_groups(max_degree):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))).map(Permutation), max_size=3
        ).map(lambda gens: PermGroup(n, gens))
    )


def product_wreath_s2(K):
    """K wr S2 in product action on m*m points, (i, j) -> i*m + j: K acts
    on the first coordinate, and one more generator swaps the two."""
    m = K.degree
    gens = [Permutation([g[x // m] * m + x % m for x in range(m * m)]) for g in K.generators]
    gens.append(Permutation([(x % m) * m + x // m for x in range(m * m)]))
    return PermGroup(m * m, gens)


def product_square(K):
    """K x K in product action on m*m points, (i, j) -> i*m + j."""
    m = K.degree
    gens = [Permutation([g[x // m] * m + x % m for x in range(m * m)]) for g in K.generators]
    gens += [Permutation([x // m * m + g[x % m] for x in range(m * m)]) for g in K.generators]
    return PermGroup(m * m, gens)


def relabeled(G, seed):
    """G conjugated by a seeded random permutation s of its points."""
    s = list(range(G.degree))
    random.Random(seed).shuffle(s)
    gens = []
    for g in G.generators:
        img = [0] * G.degree
        for x, gx in enumerate(g.images):
            img[s[x]] = s[gx]
        gens.append(Permutation(img))
    return PermGroup(G.degree, gens)


def action_on_pairs(G):
    """G acting on the 2-subsets of its points."""
    pairs = [(a, b) for b in range(G.degree) for a in range(b)]
    index = {p: i for i, p in enumerate(pairs)}
    gens = [Permutation([index[tuple(sorted((g[a], g[b])))] for a, b in pairs]) for g in G.generators]
    return PermGroup(len(pairs), gens)


# rank 3 groups: the Petersen graph's S5 on 10 points, and S4 wr S2 on the
# 4 x 4 rook's graph; random partitions of them often stabilize only after
# several rounds, in which cells split into three or more fragments
RANK_THREE = [action_on_pairs(group("symmetric", 5)), product_wreath_s2(group("symmetric", 4))]


def refine_all(weights, pairs, memo):
    """_refine_pair with its first round counting into every cell."""
    return _refine_pair(weights, pairs, memo, tuple(range(len(pairs))))


def refine_cells(part, cells):
    """The domain side of the stable refinement of the pairs (c, c)."""
    return [p for p, _ in refine_all(_arc_weights(part.color, part.rank), [(c, c) for c in cells], {})]


def random_cells(data, n):
    """A random ordered partition of 0..n-1."""
    points = data.draw(st.permutations(list(range(n))))
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return [tuple(points[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestOrbitals:
    def test_two_transitive_has_rank_two(self):
        part = orbitals(group("symmetric", 3))
        assert part.rank == 2
        assert {part.color[x][x] for x in range(3)} == {0}

    def test_regular_cyclic_rank_equals_degree(self):
        assert orbitals(group("cyclic", 4)).rank == 4

    def test_dihedral_on_4_points(self):
        assert orbitals(group("dihedral", 4)).rank == 3

    def test_class_sizes_cover_all_pairs(self, corpus_entries):
        for entry in corpus_entries:
            part = orbitals(entry.group)
            n = entry.group.degree
            sizes = {}
            for row in part.color:
                for c in row:
                    sizes[c] = sizes.get(c, 0) + 1
            assert sum(sizes.values()) == n * n, entry.name
            assert sorted(sizes) == list(range(part.rank)), entry.name

    def test_transitive_single_diagonal_color(self, corpus_entries):
        for entry in corpus_entries:
            part = orbitals(entry.group)
            assert len({part.color[x][x] for x in range(len(part.color))}) == 1, entry.name

    @settings(max_examples=150, deadline=None)
    @given(random_groups(9))
    def test_matches_pair_orbit_oracle(self, G):
        assert_oracle_orbitals(G)

    @pytest.mark.parametrize(
        "G",
        [
            wreath(2, [(1, 0)], 16, [cycle_images(16)]),
            wreath(3, [cycle_images(3)], 8, [(1, 0, 2, 3, 4, 5, 6, 7), cycle_images(8)]),
            wreath(4, [cycle_images(4)], 8, [cycle_images(8), tuple((8 - i) % 8 for i in range(8))]),
            wreath(4, [(1, 0, 2, 3), cycle_images(4)], 6, [cycle_images(6)]),
            wreath(3, [(1, 0, 2), (1, 2, 0)], 3, [(1, 0, 2), (1, 2, 0)]),
            PermGroup(32),
            PermGroup(1),
            # points that every generator fixes, whose rows need no chain
            PermGroup(144, [perm("(0 1)", 144)]),
            PermGroup(144, [perm("(0 1)", 144), perm("(0 1 2 3)", 144)]),
            PermGroup(10, [perm("(0 1)(2 3 4)", 10), perm("(5 6)", 10)]),
        ],
        ids=[
            "C2wrC16", "C3wrS8", "C4wrD8", "S4wrC6", "S3wrS3", "trivial_32", "degree_1",
            "C2_on_144", "S4_on_4_of_144", "three_orbits_of_10",
        ],
    )
    def test_wreath_products_match_pair_orbit_oracle(self, G):
        assert_oracle_orbitals(G)

    def test_colors_invariant_under_generators(self):
        G = group("dihedral", 5)
        part = orbitals(G)
        for g in G.generators:
            for a in range(5):
                for b in range(5):
                    assert part.color[g[a]][g[b]] == part.color[a][b]


def assert_oracle_orbitals(G):
    """orbitals against the brute-force pair orbits, renumbered in the
    order a row-major scan first meets them, with no chain re-based on a
    point every generator fixes (G_m = G)."""
    n = G.degree
    ids = pair_orbit_ids([g.images for g in G.generators], n)
    renumber = {}
    expected = tuple(tuple(renumber.setdefault(ids[a, b], len(renumber)) for b in range(n)) for a in range(n))
    bases = []
    chain_on = PermGroup._chain_on
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PermGroup, "_chain_on", lambda self, base: bases.append(base) or chain_on(self, base))
        part = orbitals(G)
    assert part.color == expected
    assert part.rank == len(renumber)
    assert all(any(g.images[m] != m for g in G.generators) for (m,) in bases), bases


class TestRefinePartition:
    def test_full_symmetry_never_splits(self):
        part = orbitals(group("symmetric", 5))
        assert refine_cells(part, [tuple(range(5))]) == [tuple(range(5))]

    def test_regular_cyclic_splits_to_points(self):
        part = orbitals(group("cyclic", 4))
        assert refine_cells(part, [(0,), (1, 2, 3)]) == [(0,), (1,), (2,), (3,)]

    def test_discrete_is_fixed_point(self):
        part = orbitals(group("dihedral", 4))
        discrete = [(i,) for i in range(4)]
        assert refine_cells(part, discrete) == discrete



class TestRefinementOracle:
    """Integer-coded signatures against explicit per-cell color counts."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_groups(8), st.sampled_from(RANK_THREE)), st.data())
    def test_refine_partition_matches_count_oracle(self, G, data):
        part = orbitals(G)
        cells = random_cells(data, G.degree)
        expected = count_refine_pair(part.color, part.rank, [(c, c) for c in cells])
        assert refine_cells(part, cells) == [p for p, _ in expected]

    @settings(max_examples=150, deadline=None)
    @given(random_groups(8), st.data())
    def test_individualized_refinement_matches_count_oracle(self, G, data):
        part = orbitals(G)
        weights = _arc_weights(part.color, part.rank)
        unit = tuple(range(G.degree))
        pairs = _refine_pair(weights, [(unit, unit)], {}, (0,))
        assert pairs == count_refine_pair(part.color, part.rank, [(unit, unit)])
        # individualize random point pairs, level after level, while the
        # refinement succeeds and leaves a cell to split
        while pairs is not None:
            open_cells = [t for t, (cp, _) in enumerate(pairs) if len(cp) > 1]
            if not open_cells:
                break
            t = data.draw(st.sampled_from(open_cells))
            cp, cq = pairs[t]
            x, y = data.draw(st.sampled_from(cp)), data.draw(st.sampled_from(cq))
            individualized = _individualize(pairs, t, x, y)
            pairs = refine_all(weights, individualized, {})
            assert pairs == count_refine_pair(part.color, part.rank, individualized)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_groups(8), st.sampled_from(RANK_THREE)), st.data())
    def test_shared_memo_matches_count_oracle_and_fresh_memo(self, G, data):
        """Refine individualized stable pairs as the search does, counting
        first into the new singleton only, with a fresh memo and with one
        shared by the branches, which may also hold a full first round of
        the same pairs; each must equal explicit counting and a full first
        round with a fresh memo.  The branches start from one refined
        random partition, which may be a single cell as in the search, and
        mostly individualize the first point of the first open domain
        cell, as the search does, so domain partitions repeat."""
        part = orbitals(G)
        weights = _arc_weights(part.color, part.rank)
        memo = {}
        cells = random_cells(data, G.degree)
        start = refine_all(weights, [(c, c) for c in cells], memo)
        assert start == count_refine_pair(part.color, part.rank, [(c, c) for c in cells])
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            pairs = start
            while pairs is not None:
                open_cells = [t for t, (cp, _) in enumerate(pairs) if len(cp) > 1]
                if not open_cells:
                    break
                if data.draw(st.booleans()):
                    t = open_cells[0]
                    x = pairs[t][0][0]
                else:
                    t = data.draw(st.sampled_from(open_cells))
                    x = data.draw(st.sampled_from(pairs[t][0]))
                y = data.draw(st.sampled_from(pairs[t][1]))
                individualized = _individualize(pairs, t, x, y)
                expected = count_refine_pair(part.color, part.rank, individualized)
                assert refine_all(weights, individualized, {}) == expected
                assert _refine_pair(weights, individualized, {}, (t,)) == expected
                if data.draw(st.booleans()):
                    assert refine_all(weights, individualized, memo) == expected
                pairs = _refine_pair(weights, individualized, memo, (t,))
                assert pairs == expected


def assert_principal_branch_splits_once(G):
    """Refine the principal branch step by step, as the search does, with
    _split and _domain_round counted.  Every image cell of a principal
    step is its domain cell, so _split must run only from _domain_round,
    once per non-singleton domain cell of each round (a fresh memo per
    step makes every round a _domain_round call); and each step must
    still equal explicit counting."""
    part = orbitals(G)
    weights = _arc_weights(part.color, part.rank)
    callers, open_cells = [], []
    split, domain_round = pga.closure._split, pga.closure._domain_round

    def counted_split(weights, cell, layout):
        callers.append(sys._getframe(1).f_code.co_name)
        return split(weights, cell, layout)

    def counted_round(weights, cells, new):
        open_cells.append(sum(len(cell) > 1 for cell in cells))
        return domain_round(weights, cells, new)

    unit = tuple(range(G.degree))
    individualized, new = [(unit, unit)], (0,)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pga.closure, "_split", counted_split)
        patch.setattr(pga.closure, "_domain_round", counted_round)
        while True:
            callers.clear()
            open_cells.clear()
            pairs = _refine_pair(weights, individualized, {}, new)
            assert open_cells
            assert callers == ["_domain_round"] * sum(open_cells)
            assert pairs == count_refine_pair(part.color, part.rank, individualized)
            t = _first_non_singleton(pairs)
            if t is None:
                break
            x = pairs[t][0][0]
            individualized, new = _individualize(pairs, t, x, x), (t,)


class TestPrincipalBranchSplitsOnce:
    def test_corpus(self, corpus_entries):
        for entry in corpus_entries:
            assert_principal_branch_splits_once(entry.group)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_groups(9), st.sampled_from(RANK_THREE)))
    def test_random_groups(self, G):
        assert_principal_branch_splits_once(G)


def transitive_groups(max_degree):
    """Random groups that hold an n-cycle through a random order of the
    points, so they are transitive."""

    def build(n, order, extra):
        img = [0] * n
        for i, p in enumerate(order):
            img[p] = order[(i + 1) % n]
        return PermGroup(n, [Permutation(img), *extra])

    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.permutations(list(range(n))),
            st.lists(st.permutations(list(range(n))).map(Permutation), max_size=2),
        )
    )


def assert_first_round_cannot_split(G):
    """A transitive G preserves its pair colors, so every row holds each
    color equally often: a first round leaves the unit pair as it is,
    and the principal branch with that round skipped is the one with it."""
    assert G.is_transitive()
    part = orbitals(G)
    weights = _arc_weights(part.color, part.rank)
    unit = tuple(range(G.degree))
    assert _refine_pair(weights, [(unit, unit)], {}, (0,)) == [(unit, unit)]
    assert _principal_branch(part.color, part.rank, True)[2] == _principal_branch(part.color, part.rank, False)[2]


def path(x, y):
    return abs(x - y) == 1


def broom(x, y):
    """A star on 0..3 centred at 0, with a path 3 - 4 - 5 - 6 - 7 hanging
    off its leaf 3."""
    return {x, y} in ({0, 1}, {0, 2}, {0, 3}) or (min(x, y) >= 3 and path(x, y))


class TestFirstRound:
    """The principal branch skips its first round when the group it is
    given is transitive, and only then."""

    def test_corpus(self, corpus_entries):
        for entry in corpus_entries:
            assert_first_round_cannot_split(entry.group)

    def test_closure_workload(self):
        for G in workload_groups(1):
            assert_first_round_cannot_split(G)

    @settings(max_examples=100, deadline=None)
    @given(transitive_groups(9))
    def test_random_transitive_groups(self, G):
        assert_first_round_cannot_split(G)

    @pytest.mark.parametrize("n, adjacent, order", [(6, path, 2), (8, broom, 2)], ids=["path", "broom"])
    def test_irregular_graph_with_one_diagonal_color(self, n, adjacent, order, monkeypatch):
        """Every diagonal pair of a graph coloring has color 0, yet a
        graph that is not regular has points of different degrees, which
        the first round splits apart; the search, handed the trivial group,
        which is not transitive, must run that round."""
        color = graph_colors(n, adjacent)
        unit = tuple(range(n))
        expected = count_refine_pair(color, 3, [(unit, unit)])
        assert expected != [(unit, unit)]
        branches = []
        principal_branch = pga.closure._principal_branch

        def recorded(*args):
            branches.append(principal_branch(*args))
            return branches[-1]

        monkeypatch.setattr(pga.closure, "_principal_branch", recorded)
        gens, chain = _color_automorphism_generators(color, 3, PermGroup(n))
        assert branches[0][2][0][0] == expected
        assert chain.order() == order
        assert all(color[g.images[x]][g.images[y]] == color[x][y] for g in gens for x in range(n) for y in range(n))


class TestTwoClosure:
    def test_symmetric_group_is_closed(self):
        G = group("symmetric", 5)
        assert two_closure(G).order() == 120
        assert is_2_closed(G)

    def test_regular_cyclic_is_closed(self):
        G = group("cyclic", 4)
        assert two_closure(G).order() == 4
        assert is_2_closed(G)

    def test_alt4_closes_to_sym4(self):
        G = group("alternating", 4)
        H = two_closure(G)
        assert H.order() == 24
        assert not is_2_closed(G)

    def test_degree_cap(self):
        with pytest.raises(CapExceededError, match="degree 12 exceeds closure degree cap 10"):
            two_closure(group("cyclic", 12), degree_cap=10)

    def test_trivial_group(self):
        G = PermGroup(3)
        assert two_closure(G).order() == 1

    def test_intransitive_input(self):
        G = PermGroup(4, [perm("(0 1)", 4)])
        H = two_closure(G)
        assert H.order() == 2
        assert H.contains(perm("(0 1)", 4))


def assert_two_closed_decision(G):
    """is_2_closed(G) is whether the 2-closure has G's order, and so, at
    degree <= 6, whether filtering all n! permutations keeps |G| of them.
    A witness preserves every pair colour and G rejects it, also when the
    cell-product certificate is switched off and the descent alone
    decides.  Returns whether G is 2-closed."""
    closed = two_closure(G, degree_cap=G.degree).order() == G.order()
    if G.degree <= 6:
        assert closed == (len(brute_two_closure([g.images for g in G.generators], G.degree)) == G.order())
    assert is_2_closed(G, degree_cap=G.degree) == closed
    with pytest.MonkeyPatch.context() as patch:
        witnesses = [_outside_automorphism(G, degree_cap=G.degree)]
        patch.setattr(pga.closure, "prod", lambda sizes: 0)
        witnesses.append(_outside_automorphism(G, degree_cap=G.degree))
    for witness in witnesses:
        assert (witness is None) == closed
        if witness is not None:
            assert _preserves_colors(orbitals(G).color, witness.images)
            assert not G.contains(witness)
    return closed


NOT_TWO_CLOSED = [
    "alternating_4", "alternating_5", "alternating_6", "alternating_7", "alternating_8",
    "frobenius_5_4", "frobenius_7_6", "m11_12",
]
# per group of workload_groups(1); only A8 wr C4 is not 2-closed
WORKLOAD_TWO_CLOSED = [True, True, False, True, True, True]


class TestTwoClosedDecision:
    """is_2_closed decides without building the 2-closure: by the product
    of the principal branch's cell sizes, else by the first automorphism
    of the descent that G lacks."""

    def test_corpus(self, corpus_entries):
        assert [e.name for e in corpus_entries if not assert_two_closed_decision(e.group)] == NOT_TWO_CLOSED

    def test_closure_workload(self):
        assert [assert_two_closed_decision(G) for G in workload_groups(1)] == WORKLOAD_TWO_CLOSED

    def test_m11_squared_in_product_action(self, corpus_by_name):
        G = product_square(corpus_by_name["m11_12"].group)
        assert G.order() == 7920**2
        assert not assert_two_closed_decision(G)

    @settings(max_examples=150, deadline=None)
    @given(random_groups(8))
    def test_random_groups(self, G):
        assert_two_closed_decision(G)

    def test_degree_one(self):
        G = PermGroup(1)
        part = orbitals(G)
        assert _principal_branch(part.color, part.rank, G.is_transitive())[2] == []
        assert _outside_automorphism(G) is None
        assert is_2_closed(G)

    def test_degree_cap(self):
        with pytest.raises(CapExceededError, match="degree 12 exceeds closure degree cap 10"):
            is_2_closed(group("cyclic", 12), degree_cap=10)

    def test_builds_no_closure_chain(self, corpus_entries, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decision built a chain")

        expected = [e.name not in NOT_TWO_CLOSED for e in corpus_entries]
        for e in corpus_entries:
            e.group.order()  # G's own chain, which the decision sifts through
        monkeypatch.setattr(pga.closure, "_color_automorphism_generators", refuse)
        monkeypatch.setattr(PermGroup, "_chain_on", refuse)
        monkeypatch.setattr(StabilizerChain, "_insert", refuse)
        assert [is_2_closed(e.group) for e in corpus_entries] == expected

    def test_cell_product_settles_the_two_closed_groups(self, corpus_entries, monkeypatch):
        """On the corpus and the closure workload every 2-closed group has
        |G| equal to the product of its principal branch's cell sizes, so
        no descent runs."""
        groups = [e.group for e in corpus_entries if e.name not in NOT_TWO_CLOSED]
        groups += [G for G, closed in zip(workload_groups(1), WORKLOAD_TWO_CLOSED) if closed]
        monkeypatch.setattr(pga.closure, "_descent", None)
        assert all(is_2_closed(G, degree_cap=G.degree) for G in groups)


class TestHighRankInputs:
    """Intransitive inputs reach rank close to n**2; the refinement weights
    must stay as wide as the degree allows, whatever the rank."""

    @pytest.mark.parametrize("n", [32, 144])
    @pytest.mark.parametrize("swap", [False, True], ids=["trivial", "swap01"])
    def test_closure_and_weight_width(self, n, swap):
        G = PermGroup(n, [perm("(0 1)", n)]) if swap else PermGroup(n)
        part = orbitals(G)
        assert part.rank > n * (n - 2)
        weights = _arc_weights(part.color, part.rank)
        assert max(w for row in weights for w in row) < (n + 1) ** (n + 1)
        H = two_closure(G, degree_cap=n)
        assert H.order() == (2 if swap else 1)

    @pytest.mark.parametrize("n", [32, 144])
    @pytest.mark.parametrize("swap", [False, True], ids=["trivial", "swap01"])
    def test_weights_match_the_direct_formula(self, n, swap):
        G = PermGroup(n, [perm("(0 1)", n)]) if swap else PermGroup(n)
        part = orbitals(G)
        assert _arc_weights(part.color, part.rank) == direct_arc_weights(part.color)

    def test_corpus_weights_match_the_direct_formula(self, corpus_entries):
        for entry in corpus_entries:
            part = orbitals(entry.group)
            assert _arc_weights(part.color, part.rank) == direct_arc_weights(part.color)

    def test_refinement_matches_count_oracle_at_degree_32(self):
        G = PermGroup(32, [perm("(0 1)(2 3 4)", 32)])
        part = orbitals(G)
        cells = [tuple(range(0, 32, 2)), tuple(range(1, 32, 2))]
        expected = count_refine_pair(part.color, part.rank, [(c, c) for c in cells])
        assert refine_cells(part, cells) == [p for p, _ in expected]


class TestAboveCap:
    """M11 wr S2 in product action on 144 points, above the enumeration
    cap.  M11 is 2-transitive on 12 points, so two ordered pairs of
    points (i, j), (i', j') lie in one pair orbit exactly when as many
    of their coordinates agree: the pair orbits are those of the Hamming
    graph H(2, 12), whose automorphism group S12 wr S2 is the closure."""

    @pytest.mark.parametrize("seed", [None, 5], ids=["plain", "relabeled"])
    def test_m11_wreath_s2_closes_to_s12_wreath_s2(self, corpus_by_name, seed):
        G = product_wreath_s2(corpus_by_name["m11_12"].group)
        if seed is not None:
            G = relabeled(G, seed)
        assert orbitals(G).rank == 3
        H = two_closure(G, degree_cap=144)
        assert H.order() == 2 * factorial(12) ** 2
        assert all(H.contains(g) for g in G.generators)
        assert_every_schreier_generator_sifts(H.chain())


def closure_chains(G):
    """The chain two_closure builds, and the chain Schreier-Sims sifts
    from the search's generators on the search base."""
    part = orbitals(G)
    gens, chain = _color_automorphism_generators(part.color, part.rank, G)
    return two_closure(G, degree_cap=G.degree).chain(), StabilizerChain(G.degree, gens, base_prefix=chain.base)


CHAIN_SOURCES = ["corpus", "workload_seed1", "workload_seed2"]


class TestClosureChain:
    """two_closure builds its chain from the search's generators as a
    strong generating set for the search base, sifting nothing.  On the
    corpus, the closure workload's groups under two relabelings and
    random groups, that chain must be the one Schreier-Sims builds from
    them on that base, and every Schreier generator must sift."""

    @staticmethod
    def groups(source, corpus_entries):
        if source == "corpus":
            return [e.group for e in corpus_entries]
        return workload_groups(int(source[-1]))

    @pytest.mark.parametrize("source", CHAIN_SOURCES)
    def test_equals_the_sifted_chain(self, corpus_entries, source):
        for G in self.groups(source, corpus_entries):
            built, sifted = closure_chains(G)
            assert_same_chain(built, sifted)
            assert_every_schreier_generator_checked(built)

    @pytest.mark.parametrize("source", CHAIN_SOURCES)
    def test_every_schreier_generator_sifts(self, corpus_entries, source):
        for G in self.groups(source, corpus_entries):
            assert_every_schreier_generator_sifts(two_closure(G, degree_cap=G.degree).chain())

    @settings(max_examples=80, deadline=None)
    @given(random_groups(8))
    def test_random_groups(self, G):
        built, sifted = closure_chains(G)
        assert_same_chain(built, sifted)
        assert_every_schreier_generator_checked(built)
        assert_every_schreier_generator_sifts(built)


def graph_colors(n, adjacent):
    """Three colours of ordered pairs: 0 on the diagonal, 1 on an edge, 2
    on a non-edge.  Every row holds all three, as _arc_weights needs."""
    return tuple(tuple(0 if x == y else 1 if adjacent(x, y) else 2 for y in range(n)) for x in range(n))


def shrikhande(x, y):
    """Cayley graph of Z4 x Z4, point 4i + j being (i, j)."""
    return ((x // 4 - y // 4) % 4, (x % 4 - y % 4) % 4) in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}


def rook(x, y):
    """The 4 x 4 rook's graph, point 4i + j being (i, j)."""
    return (x // 4 == y // 4) != (x % 4 == y % 4)


def cycle(n):
    return lambda x, y: (x - y) % n in (1, n - 1)


def disjoint_union(a, size_a, b):
    return lambda x, y: a(x, y) if max(x, y) < size_a else min(x, y) >= size_a and b(x - size_a, y - size_a)


class TestColorSearchRejections:
    """Colourings that no group's orbitals give, so that the search meets
    a refinement whose two sides split differently, a branch with no
    automorphism, and a failed image at a level of the search.  The
    rook's graph and the Shrikhande graph share their parameters, so
    refinement cannot tell their points apart."""

    @pytest.mark.parametrize(
        "n, adjacent, order",
        [
            (16, shrikhande, 192),
            (32, disjoint_union(rook, 16, shrikhande), 1152 * 192),
            (12, disjoint_union(cycle(6), 6, disjoint_union(cycle(3), 3, cycle(3))), 12 * 72),
        ],
        ids=["shrikhande", "rook_and_shrikhande", "c6_and_two_c3"],
    )
    def test_automorphism_group(self, n, adjacent, order):
        color = graph_colors(n, adjacent)
        gens, chain = _color_automorphism_generators(color, 3, PermGroup(n))
        assert_same_chain(chain, StabilizerChain(n, gens, base_prefix=chain.base))
        assert chain.order() == order
        assert all(color[g.images[x]][g.images[y]] == color[x][y] for g in gens for x in range(n) for y in range(n))
        assert_every_schreier_generator_sifts(chain)


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.lists(
                st.permutations(list(range(n))).map(Permutation),
                min_size=1,
                max_size=3,
            ).map(lambda gens: PermGroup(n, gens))
        )
    )
    def test_matches_brute_filter_on_random_groups(self, G):
        expected = brute_two_closure([g.images for g in G.generators], G.degree)
        H = two_closure(G)
        assert H.order() == len(expected)
        assert all(g.images in expected for g in H.generators)

    def test_matches_brute_filter_up_to_degree_7(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            if G.degree > 7:
                continue
            expected = brute_two_closure([g.images for g in G.generators], G.degree)
            H = two_closure(G)
            assert H.order() == len(expected), entry.name
            assert all(H.contains(Permutation(img)) for img in expected), entry.name
            assert all(g.images in expected for g in H.generators), entry.name


class TestClosureLaws:
    def test_containment_and_idempotence_degree_le_10(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            if G.degree > 10:
                continue
            H = two_closure(G)
            assert all(H.contains(g) for g in G.generators), entry.name
            assert H.order() >= G.order(), entry.name
            HH = two_closure(H)
            assert HH.order() == H.order(), entry.name

    def test_orbital_agreement(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            if G.degree > 10:
                continue
            assert orbitals(two_closure(G)).color == orbitals(G).color, entry.name

    def test_two_transitive_closes_to_symmetric(self, corpus_entries):
        for entry in corpus_entries:
            G = entry.group
            part = orbitals(G)
            if part.rank != 2 or G.degree > 12:
                continue
            assert two_closure(G).order() == factorial(G.degree), entry.name


def search_output(gens, chain):
    """Generators, search base and each level's orbit points in order."""
    return [g.images for g in gens], chain.base, [list(lvl.codes) for lvl in chain.levels]


def closure_output(G):
    H = two_closure(G, degree_cap=G.degree)
    return search_output(H.generators, H.chain())


def output_without_g(G):
    """The search given the trivial group in place of G, so that
    _find_one finds the automorphism for every image tried."""
    part = orbitals(G)
    return search_output(*_color_automorphism_generators(part.color, part.rank, PermGroup(G.degree)))


class TestSettledImages:
    """Images that G reaches are settled by the least element of their
    coset instead of a descent; the search's generators, base and chain
    must be those of the descent for every image, whichever seed grew
    G's chain on the search base."""

    @settings(max_examples=150, deadline=None)
    @given(random_groups(9))
    def test_random_groups(self, G):
        assert closure_output(G) == output_without_g(G)

    def test_corpus(self, corpus_entries):
        for entry in corpus_entries:
            assert closure_output(entry.group) == output_without_g(entry.group), entry.name

    def test_changed_rebase_seed(self, corpus_entries, monkeypatch):
        groups = [e.group for e in corpus_entries] + workload_groups(1)
        expected = [closure_output(G) for G in groups]
        monkeypatch.setattr(pga.group, "_REBASE_SEED", 7)
        for G, output in zip(groups, expected):
            assert closure_output(PermGroup(G.degree, G.generators)) == output


class TestPinnedSearchOutput:
    """Closure generators as the search produced them before its
    signatures were integer-coded and its chain moved onto the search
    base; the degree-24 and degree-32 wreaths as it produced them before
    it settled the images G reaches without a descent."""

    @pytest.mark.parametrize(
        "name, stdout, emitted",
        [
            (
                "frobenius_7_3",
                "group order: 21\npair-orbit rank: 3\nclosure order: 21\nis 2-closed: yes\n",
                "name: frobenius_7_3_closure\ndegree: 7\ngen: (1 2 4)(3 6 5)\ngen: (0 1 2 3 4 5 6)\n",
            ),
            (
                "elem_abelian_2_3",
                "group order: 8\npair-orbit rank: 8\nclosure order: 8\nis 2-closed: yes\n",
                "name: elem_abelian_2_3_closure\ndegree: 8\ngen: (0 1)(2 3)(4 5)(6 7)\n"
                "gen: (0 2)(1 3)(4 6)(5 7)\ngen: (0 4)(1 5)(2 6)(3 7)\n",
            ),
            (
                "m11_12",
                "group order: 7920\npair-orbit rank: 2\nclosure order: 479001600\nis 2-closed: no\n",
                "name: m11_12_closure\ndegree: 12\n"
                + "".join(f"gen: ({i} {i + 1})\n" for i in range(10, -1, -1)),
            ),
        ],
        ids=["frobenius_7_3", "elem_abelian_2_3", "m11_12"],
    )
    def test_two_closure_emit(self, capsys, corpus_dir, tmp_path, name, stdout, emitted):
        out = tmp_path / "closure.grp"
        assert main(["two-closure", str(corpus_dir / f"{name}.grp"), "--emit", str(out)]) == 0
        assert capsys.readouterr().out == stdout
        assert out.read_text() == emitted

    @pytest.mark.parametrize(
        "G, order, generators",
        [
            (
                wreath(2, [(1, 0)], 4, [(1, 2, 3, 0)]),
                64,
                ["(6 7)", "(4 5)", "(2 3)", "(0 1)", "(0 2 4 6)(1 3 5 7)"],
            ),
            (
                wreath(3, [(1, 0, 2), (1, 2, 0)], 3, [(1, 0, 2), (1, 2, 0)]),
                1296,
                ["(1 2)", "(4 5)", "(7 8)", "(6 7)", "(3 4)", "(3 6)(4 7)(5 8)", "(0 1)", "(0 3)(1 4)(2 5)"],
            ),
            (
                wreath(3, [cycle_images(3)], 8, [(1, 0, 2, 3, 4, 5, 6, 7), cycle_images(8)]),
                264539520,
                [
                    "(21 22 23)", "(18 19 20)", "(18 21)(19 22)(20 23)", "(15 16 17)", "(15 18)(16 19)(17 20)",
                    "(12 13 14)", "(12 15)(13 16)(14 17)", "(9 10 11)", "(9 12)(10 13)(11 14)", "(6 7 8)",
                    "(6 9)(7 10)(8 11)", "(3 4 5)", "(3 6)(4 7)(5 8)", "(0 1 2)", "(0 3)(1 4)(2 5)",
                ],
            ),
            (
                wreath(4, [cycle_images(4)], 8, [cycle_images(8), tuple((8 - i) % 8 for i in range(8))]),
                1048576,
                [
                    "(4 5 6 7)", "(28 29 30 31)", "(8 9 10 11)", "(24 25 26 27)", "(20 21 22 23)", "(12 13 14 15)",
                    "(4 28)(5 29)(6 30)(7 31)(8 24)(9 25)(10 26)(11 27)(12 20)(13 21)(14 22)(15 23)",
                    "(16 17 18 19)", "(0 1 2 3)",
                    "(0 4 8 12 16 20 24 28)(1 5 9 13 17 21 25 29)(2 6 10 14 18 22 26 30)(3 7 11 15 19 23 27 31)",
                ],
            ),
        ],
        ids=["C2wrC4", "S3wrS3", "C3wrS8", "C4wrD8"],
    )
    def test_wreath_closure_generators(self, G, order, generators):
        H = two_closure(G, degree_cap=G.degree)
        assert [g.cycle_string() for g in H.generators] == generators
        assert H.order() == order
        # a fresh group of the same generators builds the greedy chain
        assert PermGroup(H.degree, H.generators).order() == order
