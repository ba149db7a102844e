"""Fixity, the fixed-point profile of prime-power-order elements,
derangements, and elusiveness.

Every quantity here is a class function: conjugate elements have the
same order and the same number of fixed points.  So each function
reads its own quantity off the representatives of the group's
conjugacy-class table (PermGroup.conjugacy_classes, guarded by the
enumeration cap); no element power is formed.  A representative is
the first element of its class in the group's element walk, and each
witness comes from the first element in that walk with a property
conjugation preserves, so the witnesses are the ones a scan of every
element in walk order finds.  The prime fix-profile is a plain dict
{p: frozenset of fixed-point counts}.  Nothing is cached here: the
table belongs to the group, and each representative computes its cycle
type, which its order and fixed-point count read, once (perm.py), so
every function here reads the table afresh.
"""

from __future__ import annotations

from .config import DEFAULT_CAPS
from .errors import CapExceededError, PgaError
from .group import PermGroup
from .perm import Permutation
from .structure import factorize, is_prime


class FixityResult:
    """Largest fixed-point count of a non-identity element, with a witness."""

    __slots__ = ("fixity", "witness")

    def __init__(self, fixity: int, witness: Permutation | None):
        self.fixity = fixity
        self.witness = witness


def fixity(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> FixityResult:
    """Largest number of points fixed by a non-identity element."""
    reps = [g for g, _ in G.conjugacy_classes(cap) if not g.is_identity()]
    if not reps:
        raise CapExceededError("fixity is undefined for the trivial group")
    witness = max(reps, key=Permutation.fixed_point_count)  # the first of the most
    return FixityResult(fixity=witness.fixed_point_count(), witness=witness)


def prime_fix_profile(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> dict:
    """Fixed-point counts of prime-power-order elements, bucketed by
    prime: the result maps p, in increasing order, to the frozenset of
    |Fix(x)| over nontrivial x of order p**a."""
    counts: dict = {}
    for g, _ in G.conjugacy_classes(cap):
        primes = factorize(g.order()).factors
        if len(primes) == 1:
            counts.setdefault(primes[0][0], set()).add(g.fixed_point_count())
    return {p: frozenset(v) for p, v in sorted(counts.items())}


def is_elusive(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> bool:
    """True iff the transitive group G of degree at least 2 has no
    fixed-point-free element of prime order.  Intransitive input is a
    caller error, not False; on one point the trivial group has no
    element of prime order at all, so it is not called elusive."""
    if not G.is_transitive():
        raise PgaError("elusiveness is defined for transitive groups")
    if G.degree < 2:
        return False
    return first_prime_derangement(G, cap) is None


def any_derangement(G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap) -> Permutation | None:
    """Some fixed-point-free element of any order, or None."""
    return next((g for g, _ in G.conjugacy_classes(cap) if g.fixed_point_count() == 0), None)


def first_prime_derangement(
    G: PermGroup, cap: int = DEFAULT_CAPS.enumeration_cap
) -> Permutation | None:
    """A fixed-point-free element of prime order if one exists, else None:
    of the least such prime, the first in walk order."""
    reps = [g for g, _ in G.conjugacy_classes(cap) if g.fixed_point_count() == 0 and is_prime(g.order())]
    return min(reps, key=Permutation.order, default=None)  # the first of the least
