"""Fixity, the fixed-point profile of prime-power-order elements,
derangements, and elusiveness.

Every quantity here is a class function: conjugate elements have the
same order and the same number of fixed points, and the power of a
conjugate is the conjugate of the power.  So each is evaluated on the
representatives of the group's conjugacy-class table
(PermGroup.conjugacy_classes, guarded by the enumeration cap), with the
sum of squared fixed-point counts weighted by class size.  A
representative is the first element of its class in the group's
element walk, and each witness comes from the first element in that
walk with a property conjugation preserves, so the witnesses are the
ones a scan of every element in walk order finds.  Nothing is cached
here: the table belongs to the group, and the evaluation over it is
cheap enough to repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import NotTransitiveError, TrivialGroupError
from .group import PermGroup
from .perm import Permutation
from .structure import factorize


@dataclass(frozen=True)
class FixityResult:
    """Largest fixed-point count of a non-identity element, with a witness."""

    fixity: int
    witness: Permutation | None
    witness_fixed_set: frozenset


@dataclass(frozen=True)
class PrimeFixProfile:
    """Fixed-point counts of prime-power-order elements, bucketed by prime:
    power_fix_counts[p] collects |Fix(x)| over nontrivial x of order p**a."""

    power_fix_counts: dict


@dataclass
class _Scan:
    max_fix: int
    max_fix_witness: Permutation | None
    power_fix: dict
    prime_derangements: dict
    derangement: Permutation | None
    fix_square_sum: int


def _element_scan(G: PermGroup, cap: int) -> _Scan:
    max_fix = -1
    witness = None
    power_fix: dict = {}
    prime_derangements: dict = {}
    derangement = None
    fix_sq = 0
    for g, size in G.conjugacy_classes(cap):
        fp = g.fixed_point_count()
        fix_sq += size * fp * fp
        if g.is_identity():
            continue
        if fp > max_fix:
            max_fix = fp
            witness = g
        if fp == 0 and derangement is None:
            derangement = g
        m = g.order()
        m_factors = factorize(m).factors
        for p, _ in m_factors:
            if p not in prime_derangements:
                h = g ** (m // p)
                if h.fixed_point_count() == 0:
                    prime_derangements[p] = h
        if len(m_factors) == 1:
            power_fix.setdefault(m_factors[0][0], set()).add(fp)
    return _Scan(
        max_fix=max_fix,
        max_fix_witness=witness,
        power_fix=power_fix,
        prime_derangements=prime_derangements,
        derangement=derangement,
        fix_square_sum=fix_sq,
    )


def fixity(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> FixityResult:
    """Largest number of points fixed by a non-identity element."""
    scan = _element_scan(G, cap)
    if scan.max_fix_witness is None:
        raise TrivialGroupError("fixity is undefined for the trivial group")
    return FixityResult(
        fixity=scan.max_fix,
        witness=scan.max_fix_witness,
        witness_fixed_set=scan.max_fix_witness.fixed_points(),
    )


def prime_fix_profile(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> PrimeFixProfile:
    scan = _element_scan(G, cap)
    return PrimeFixProfile(
        power_fix_counts={p: frozenset(v) for p, v in sorted(scan.power_fix.items())},
    )


def is_elusive(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> bool:
    """True iff the transitive group G of degree at least 2 has no
    fixed-point-free element of prime order.  Intransitive input is a
    caller error, not False; on one point the trivial group has no
    element of prime order at all, so it is not called elusive."""
    if not G.is_transitive():
        raise NotTransitiveError("elusiveness is defined for transitive groups")
    if G.degree < 2:
        return False
    return not _element_scan(G, cap).prime_derangements


def fixed_point_square_sum(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> int:
    """Sum of |Fix(g)|**2 over all elements, identity included."""
    return _element_scan(G, cap).fix_square_sum


def any_derangement(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> Permutation | None:
    """Some fixed-point-free element of any order, or None."""
    return _element_scan(G, cap).derangement


def first_prime_derangement(
    G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap
) -> Permutation | None:
    """A fixed-point-free element of prime order if one exists, else None."""
    scan = _element_scan(G, cap)
    for p in sorted(scan.prime_derangements):
        return scan.prime_derangements[p]
    return None
