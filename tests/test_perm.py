import pickle
from math import factorial

import pytest
from hypothesis import given, strategies as st

from pga.errors import PgaError
from pga.perm import Permutation

import oracles


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


@st.composite
def permutations_st(draw, max_degree=12):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    return Permutation(draw(st.permutations(list(range(n)))))


def same_degree_perms(count, max_degree=12):
    def build(args):
        n, seeds = args
        return [Permutation(seed) for seed in seeds]

    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(list(range(n))), min_size=count, max_size=count)
        )
    ).map(build)


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(3).images == (0, 1, 2)
        assert Permutation.identity(1).images == (0,)

    def test_identity_rejects_zero_degree(self):
        with pytest.raises(PgaError, match="degree must be at least 1, got 0"):
            Permutation.identity(0)

    def test_rejects_non_bijection(self):
        with pytest.raises(PgaError, match="not a bijection"):
            Permutation([0, 0, 1])
        with pytest.raises(PgaError, match="degree must be at least 1"):
            Permutation([])

    def test_identity_composes_neutrally(self):
        g = perm("(0 1 2 3)", 4)
        assert Permutation.identity(4) * g == g
        assert g * Permutation.identity(4) == g


class TestCompose:
    def test_square_of_three_cycle(self):
        g = perm("(0 1 2)", 3)
        assert g * g == perm("(0 2 1)", 3)

    def test_left_to_right_convention(self):
        a = perm("(0 1)", 3)
        b = perm("(1 2)", 3)
        assert (a * b).images == (2, 0, 1)

    def test_inverse_cancels(self):
        g = perm("(0 2)(1 3 4)", 5)
        assert g * g.inverse() == Permutation.identity(5)

    def test_degree_mismatch(self):
        with pytest.raises(PgaError, match="cannot compose degree 2 with degree 3"):
            perm("(0 1)", 2) * perm("(0 1)", 3)


class TestInverse:
    def test_four_cycle(self):
        assert perm("(0 1 2 3)", 4).inverse() == perm("(0 3 2 1)", 4)

    def test_identity(self):
        assert Permutation.identity(5).inverse() == Permutation.identity(5)

    def test_involution(self):
        assert perm("(0 1)", 2).inverse() == perm("(0 1)", 2)


class TestOrder:
    def test_lcm_of_cycle_lengths(self):
        assert perm("(0 1 2)(3 4)", 5).order() == 6

    def test_identity(self):
        assert Permutation.identity(4).order() == 1

    def test_four_cycle(self):
        assert perm("(0 1 2 3)", 4).order() == 4


class TestFixedPoints:
    def test_identity_fixes_everything(self):
        assert Permutation.identity(5).fixed_points() == {0, 1, 2, 3, 4}

    def test_double_transposition(self):
        assert perm("(0 1)(2 3)", 5).fixed_points() == {4}

    def test_derangement(self):
        assert perm("(0 1 2 3 4)", 5).fixed_points() == frozenset()


class TestCycleType:
    def test_double_transposition(self):
        assert perm("(0 1)(2 3)", 4).cycle_type() == (2, 2)

    def test_three_cycle_with_fixed_points(self):
        assert perm("(0 1 2)", 5).cycle_type() == (1, 1, 3)

    def test_identity(self):
        assert Permutation.identity(3).cycle_type() == (1, 1, 1)


class TestParsing:
    def test_four_cycle(self):
        assert perm("(0 1 2 3)", 4).images == (1, 2, 3, 0)

    def test_empty_cycles_is_identity(self):
        assert perm("()", 3) == Permutation.identity(3)

    def test_repeated_point_rejected(self):
        with pytest.raises(PgaError, match="point 1 occurs twice"):
            perm("(0 1)(1 2)", 3)

    def test_point_out_of_range(self):
        with pytest.raises(PgaError, match="point 4 out of range for degree 3"):
            perm("(0 1 4)", 3)

    def test_malformed(self):
        cases = {
            "": "empty cycle expression",
            "(0": "unclosed cycle",
            "0 1)": r"expected '\(' at position 0",
            "(0)": "needs at least two points",
            "(x y)": "bad point 'x'",
            "(0 1) junk": r"expected '\(' at position 6",
            "(0 \u00b2)": "bad point '\u00b2'",
            "(0 \u0663)": "bad point '\u0663'",
        }
        for bad, message in cases.items():
            with pytest.raises(PgaError, match=message):
                perm(bad, 4)

    def test_canonical_printing(self):
        g = perm("(2 3)(0 1)", 6)
        assert g.cycle_string() == "(0 1)(2 3)"
        assert Permutation.identity(4).cycle_string() == "()"
        rotated = perm("(3 1 2)", 4)
        assert rotated.cycle_string() == "(1 2 3)"


class TestProperties:
    @given(same_degree_perms(3))
    def test_associativity(self, perms):
        a, b, c = perms
        assert (a * b) * c == a * (b * c)

    @given(permutations_st())
    def test_identity_laws(self, g):
        e = Permutation.identity(g.degree)
        assert e * g == g
        assert g * e == g

    @given(permutations_st())
    def test_inverse_law(self, g):
        e = Permutation.identity(g.degree)
        assert g * g.inverse() == e
        assert g.inverse() * g == e

    @given(permutations_st())
    def test_order_divides_factorial_and_annihilates(self, g):
        k = g.order()
        assert factorial(g.degree) % k == 0
        assert (g**k).is_identity()
        for smaller in range(1, min(k, 6)):
            assert not (g**smaller).is_identity()

    @given(permutations_st())
    def test_fixed_points_match_cycle_type(self, g):
        assert len(g.fixed_points()) == sum(1 for l in g.cycle_type() if l == 1)

    @given(permutations_st())
    def test_cycle_text_round_trip(self, g):
        assert Permutation.from_cycles(g.cycle_string(), g.degree) == g

    @given(permutations_st())
    def test_order_is_lcm_certificate(self, g):
        assert g.order() == min(
            k for k in range(1, g.order() + 1) if (g**k).is_identity()
        )

    @given(permutations_st(max_degree=8))
    def test_prime_order_semiregular_iff_derangement(self, g):
        # for prime-order elements: semiregular (every cycle of length p)
        # means no fixed points at all
        from pga.structure import is_prime

        p = g.order()
        if is_prime(p):
            assert (g.cycle_type() == (p,) * (g.degree // p)) == (len(g.fixed_points()) == 0)


class TestUncheckedProducts:
    """Products and inverses skip the bijection check; they must still be
    exactly the oracle's products and bijections."""

    @given(same_degree_perms(2))
    def test_product_and_inverse_match_oracle(self, perms):
        a, b = perms
        n = a.degree
        assert (a * b).images == oracles.mul(a.images, b.images)
        assert sorted((a * b).images) == list(range(n))
        inv = a.inverse().images
        assert oracles.mul(a.images, inv) == tuple(range(n))
        assert sorted(inv) == list(range(n))

    def test_degree_one(self):
        # the product takes its images with operator.itemgetter, which
        # returns the item itself, not a 1-tuple, for a single index
        e = Permutation.identity(1)
        assert (e * e).images == (0,)
        assert (e**5).images == (0,)
        assert e.inverse().images == (0,)

    def test_public_constructor_still_checks(self):
        with pytest.raises(PgaError, match="not a bijection"):
            Permutation([0, 0, 1])

    @given(permutations_st(), permutations_st())
    def test_mixed_degrees_still_rejected(self, a, b):
        if a.degree != b.degree:
            with pytest.raises(PgaError, match="cannot compose degree"):
                a * b


QUERIES = {
    "cycle_type": oracles.cycle_type,
    "order": oracles.order,
    "fixed_point_count": oracles.fixed_count,
}


def assert_matches_oracle(g):
    for name, oracle in QUERIES.items():
        assert getattr(g, name)() == oracle(g.images), name


class TestCachedCycleType:
    """A permutation computes its cycle type once and keeps it; order and
    the fixed-point count read it.  Every answer must be the oracle's,
    whichever is asked first, and nothing made from a permutation may
    inherit its type."""

    @given(permutations_st(max_degree=300), st.permutations(list(QUERIES)))
    def test_any_call_order_matches_oracle(self, g, names):
        for name in names + names:  # the first round fills the type, the second reads it
            assert getattr(g, name)() == QUERIES[name](g.images), name

    @given(same_degree_perms(2, max_degree=300), st.integers(min_value=-3, max_value=7))
    def test_derived_permutations_carry_no_stale_type(self, perms, k):
        g, h = perms
        g.cycle_type()
        for derived in (g * h, h * g, g.inverse(), g**k, pickle.loads(pickle.dumps(g))):
            assert_matches_oracle(derived)

    @given(permutations_st(max_degree=300))
    def test_filled_type_keeps_equality_and_hash(self, g):
        g.order()
        fresh = Permutation(g.images)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert len({g, fresh}) == 1
