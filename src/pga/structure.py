"""Arithmetic and structural predicates used by the fact checks.

Covers integer factorization, derived series and solvability, abelian
invariants (by element-order census), normal closures, and the full
normal-subgroup listing of a group.  A normal closure grows one chain
by its seeds and the conjugates of its generators, keeping as a
generator only an element the chain does not yet hold, and stops with
G itself once that chain's order passes |G| / 2: the chain is complete
for the subgroup it generates, which lies in the closure, and the only
divisor of |G| above |G| / 2 is |G|.  So the derived step of a
perfect group, where solvability is decided false, and every lattice
closure that comes out as G end early.  Each listed subgroup carries the
facts the checks read: its order, its abelian invariants, whether it is
semiregular and whether it is a minimal normal subgroup; whether it is
abelian, cyclic or a p-group is read off the first two.  All four are
read off G's class table, through the classes in the subgroup's key
(below): the order is their total size, and element orders and
fixed-point counts are class functions, so no chain is built for them.

A normal subgroup is a union of conjugacy classes, so the listing keys
each one by the set of classes it contains (indices into the group's
class table).  Keys decide equality and containment, and the class
sizes give orders: |A n B| is the size of the classes in both keys and
|AB| = |A||B| / |A n B|.  The listing starts from the normal closure of
one representative per class, grown on a single stabilizer chain, and
closes under pairwise joins.  Every normal subgroup is the join of the
closures of its own elements, so nothing is missed, and every join of
normal subgroups is normal, so nothing extra appears.  A join AB is
already listed exactly when a listed subgroup of order |AB| contains
the classes of both, so a chain is built only for a join that is new.

A representative y whose conjugates by G's generators are all powers of
y has <y> as its closure, listed with no chain.  Most other closures of
single elements are subgroups already listed, and a closure's chain is
built only when a certificate fails to show that.
For a representative y, let M be the smallest listed subgroup whose key
holds y's class, or G itself when none does; M is normal and contains
y, so the closure N(y) lies in M and |N(y)| divides |M|.  Seeded
products z <- z * y^g lie in N(y), each g a uniform element of G drawn
by G's seeded sampler (PermGroup._random_elements), and as N(y) is
normal so does z's whole class.  Once the classes met, with y's and the
identity's, sum to more than |M| / 2, so does |N(y)|, and the only
divisor of |M| above |M| / 2 is |M| itself: N(y) = M.  A
class is recognised only by a cycle type that no other class of G has,
which is exact as z lies in G; classes that share a type (the split
classes of A8, M11's 8A/8B and 11A/11B) are not counted.  A recognised
class k brings the closure of its representative when an earlier
certificate or chain has found its key: z lies in N(y), so N(z), the
closure of class k, lies in N(y) too, and all its classes are met,
recognisable or not.  A certified
M that is listed is skipped, as register would drop it; a certified G
is listed with G's own generators, and is the only subgroup of its
order, so the sorted listing is unchanged.  The products are drawn from
a fixed seed, and a certificate gives up after a fixed budget or a run
of products that meet no new class, or at once when M's recognisable
classes cannot pass |M| / 2; then the closure is built.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate, repeat
from math import prod
from operator import mul

from .config import DEFAULT_CAPS
from .errors import CapExceededError, PgaError
from .group import PermGroup, StabilizerChain, _decode
from .perm import Permutation

# a closure's certificate draws at most this many products, and gives up
# after this many in a row that meet no new class
_CERTIFICATE_SAMPLES = 60
_CERTIFICATE_PATIENCE = 8
_CERTIFICATE_SEED = 1


class FactoredInteger:
    """A positive integer with its prime factorization, primes ascending."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple):
        self.value = value
        self.factors = factors  # ((prime, exponent), ...)

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n).factors == ((n, 1),)


def factorize(n: int) -> FactoredInteger:
    """Exact factorization by trial division up to the square root of what
    is left.  The integers factored here (group and element orders,
    degrees, p - 1 for a prime degree p) have no prime factor above the
    degree, so the divisor never passes the degree."""
    if n < 1:
        raise PgaError(f"cannot factor {n}")
    value = n
    counts: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        counts[n] = 1  # a prime above every divisor tried
    return FactoredInteger(value, tuple(counts.items()))


def smallest_primitive_root(p: int) -> int:
    """Least generator of the multiplicative group mod a prime p."""
    if not is_prime(p):
        raise PgaError(f"{p} is not prime")
    if p == 2:
        return 1
    phi = p - 1
    prime_parts = [q for q, _ in factorize(phi).factors]
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_parts):
            return g
    raise AssertionError("no primitive root found")  # unreachable for prime p


def commutator(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup of G containing the seeds and closed under
    conjugation by G's generators.  Unless it is G itself, each of its
    generators, a seed or a conjugate, lies outside the group generated
    by those before it.

    G itself is returned as soon as the chain being grown has order
    above |G| / 2, which is exact: that chain is complete for the
    subgroup K its generators make, K <= N <= G for the closure N, and
    |N| divides |G| with |N| >= |K| > |G| / 2, so N = G.  A closure of
    index 2 never passes |G| / 2 and is grown in full."""
    seeds = list(seeds)
    for s in seeds:
        if not G.contains(s):
            raise PgaError(f"{s!r} is not an element of the group")
    chain = StabilizerChain(G.degree, ())
    gens = []
    for s in seeds:
        if not chain.contains(s):
            gens.append(s)
            chain.extend(s)
    half = G.order() // 2
    conjugators = [(g.inverse(), g) for g in G.generators]
    queue = list(gens)
    while queue:
        if chain.order() > half:
            return G
        h = queue.pop(0)
        for g_inv, g in conjugators:
            c = g_inv * h * g
            if not chain.contains(c):
                gens.append(c)
                chain.extend(c)
                queue.append(c)
    return PermGroup._from_chain(chain, gens)


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Normal closure of the commutators of all generator pairs."""
    comms = []
    for i, a in enumerate(G.generators):
        for b in G.generators[i + 1 :]:
            comms.append(commutator(a, b))
    return normal_closure(G, comms)


def is_abelian(G: PermGroup) -> bool:
    gens = G.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if a * b != b * a:
                return False
    return True


def is_solvable(G: PermGroup) -> bool:
    """True iff the derived series reaches the trivial group."""
    H = G
    while True:
        n = H.order()
        if n == 1:
            return True
        D = derived_subgroup(H)
        if D.order() == n:
            return False
        H = D


def abelian_invariants(G: PermGroup, classes) -> tuple:
    """Invariant factors d_1 | d_2 | ... of an abelian group G.

    classes lists (representative, class size) pairs whose classes
    partition G's elements, conjugacy classes of G itself or of any group
    G is normal in, since element order is a class function.  Read off
    the element-order census, which sums to |G|: when p**c_i elements
    have order dividing p**i, exactly c_i - c_(i-1) cyclic factors have
    order divisible by p**i, so the j-th largest invariant factor is the
    product over the primes p of p**#{i : c_i - c_(i-1) >= j}.
    """
    if not is_abelian(G):
        raise PgaError("abelian_invariants needs an abelian group")
    census = Counter()
    for g, size in classes:
        census[g.order()] += size
    steps = {}  # steps[p] lists c_i - c_(i-1) for i = 1, 2, ...
    for p, e in factorize(sum(census.values())).factors:
        c = []
        for i in range(e + 1):
            n_i = sum(k for o, k in census.items() if p**i % o == 0)
            s = 0
            while p**s < n_i:
                s += 1
            assert p**s == n_i, "order census of an abelian p-part must be a p-power"
            c.append(s)
        steps[p] = [b - a for a, b in zip(c, c[1:])]
    width = max((m[0] for m in steps.values()), default=0)
    return tuple(prod(p ** sum(k >= j for k in m) for p, m in steps.items()) for j in range(width, 0, -1))


class NormalSubgroupInfo:
    """Per-subgroup summary consumed by the fact checks.

    The abelian invariants are None exactly when the subgroup is not
    abelian; the other structural flags are read off them and the order.
    """

    __slots__ = ("subgroup", "order", "abelian_invariants", "is_semiregular", "is_minimal_normal")

    def __init__(
        self,
        subgroup: PermGroup,
        order: FactoredInteger,
        abelian_invariants: tuple | None,
        is_semiregular: bool,
        is_minimal_normal: bool = False,
    ):
        self.subgroup = subgroup
        self.order = order
        self.abelian_invariants = abelian_invariants
        self.is_semiregular = is_semiregular
        self.is_minimal_normal = is_minimal_normal

    @property
    def is_abelian(self) -> bool:
        return self.abelian_invariants is not None

    @property
    def is_cyclic(self) -> bool:
        return self.is_abelian and len(self.abelian_invariants) <= 1

    @property
    def is_p_group_for(self) -> int | None:
        """The prime p when the order is p**k with k >= 1, else None."""
        return self.order.factors[0][0] if len(self.order.factors) == 1 else None

    @property
    def smallest_prime(self) -> int | None:
        """The least prime dividing the order; None only for the trivial subgroup."""
        return self.order.factors[0][0] if self.order.factors else None


def normal_subgroups(
    G: PermGroup,
    cap: int = DEFAULT_CAPS.enumeration_cap,
    lattice_cap: int = DEFAULT_CAPS.lattice_cap,
) -> list:
    """All normal subgroups of G (trivial and G itself included), as
    NormalSubgroupInfo records sorted by order."""
    classes = G.conjugacy_classes(cap)
    sizes = [size for _, size in classes]

    def key_of(H):
        return frozenset(i for i, (rep, _) in enumerate(classes) if H.contains(rep))

    # (subgroup, class key, order) per normal subgroup, in discovery order
    trivial = frozenset(i for i, (rep, _) in enumerate(classes) if rep.is_identity())
    lattice = [(PermGroup(G.degree), trivial, 1)]
    keys = {trivial}

    def register(H, key):
        if key in keys:
            return None
        entry = (H, key, sum(sizes[i] for i in key))
        lattice.append(entry)
        keys.add(key)
        if len(lattice) > lattice_cap:
            raise CapExceededError(f"more than {lattice_cap} normal subgroups")
        return entry

    class_of_type = _classes_by_cycle_type(classes)
    everything = frozenset(range(len(classes)))
    rng = random.Random(_CERTIFICATE_SEED)
    closure_of = {}  # class index -> key of its representative's closure
    for i, (rep, size) in enumerate(classes):
        if i in trivial:
            continue
        key = _cyclic_closure_key(G, rep, size, classes)
        if key is not None:  # N(rep) = <rep>: no certificate, no chain
            closure_of[i] = key
            register(G if key == everything else PermGroup(G.degree, [rep]), key)
            continue
        # the smallest listed subgroup holding rep's class, else G itself
        M = min((e for e in lattice if i in e[1]), key=lambda e: e[2], default=None)
        key = everything if M is None else M[1]
        if _closure_certified(G, rep, i, key, sizes, class_of_type, closure_of, rng):
            closure_of[i] = key
            if M is None:
                register(G, everything)
            continue  # a listed M would be dropped by register
        H = normal_closure(G, [rep])
        closure_of[i] = key_of(H)
        register(H, closure_of[i])

    # close under pairwise join; a join of normal subgroups is their product,
    # so generating from the union of generator sets is enough
    frontier = list(lattice)
    while frontier:
        A, key_a, order_a = frontier.pop(0)
        for B, key_b, order_b in list(lattice):
            both = key_a | key_b
            n = order_a * order_b // sum(sizes[i] for i in key_a & key_b)
            if any(order == n and both <= key for _, key, order in lattice):
                continue  # that subgroup contains A and B and has order |AB|
            # so AB is not listed yet, and register lists it
            J = PermGroup(G.degree, A.generators + B.generators)
            frontier.append(register(J, key_of(J)))

    lattice.sort(key=lambda e: (e[2], tuple(g.images for g in e[0].generators)))
    # H is minimal when it is nontrivial and no nontrivial key lies inside its own
    minimal = [order > 1 and not any(trivial < k < key for k in keys) for _, key, order in lattice]
    return [_describe_subgroup(H, [classes[i] for i in sorted(key)], m) for (H, key, _), m in zip(lattice, minimal)]


def _classes_by_cycle_type(classes) -> dict:
    """Cycle type -> class index, for the types that only one class has."""
    types = [rep.cycle_type() for rep, _ in classes]
    counts = Counter(types)
    return {t: i for i, t in enumerate(types) if counts[t] == 1}


def _cyclic_closure_key(G, y, size, classes):
    """The class key of y's normal closure when every conjugate of y by
    G's generators is a power of y, else None: then G normalizes <y>,
    the closure, which holds the classes whose representatives it holds.
    Then too y's class, of the given size, lies among the phi(o(y))
    generators of <y>, so a larger class is None with no power formed."""
    o = y.order()
    if size > prod(p ** (e - 1) * (p - 1) for p, e in factorize(o).factors):
        return None
    powers = {z.images for z in accumulate(repeat(y, o), mul)}
    if any((g.inverse() * y * g).images not in powers for g in G.generators):
        return None
    return frozenset(k for k, (rep, _) in enumerate(classes) if rep.images in powers)


def _closure_certified(G, y, i, key, sizes, class_of_type, closure_of, rng) -> bool:
    """True when seeded products prove that the normal closure of y, the
    representative of class i, is the normal subgroup M of G with the
    given class key (the module docstring has the argument); False proves
    nothing.  closure_of maps classes to the keys of their closures, where
    known.  Products are drawn only when the classes of M that can be
    recognised, with y's, sum to more than |M| / 2."""
    order = sum(sizes[k] for k in key)
    known = set(class_of_type.values())
    if 2 * sum(sizes[k] for k in key if k == i or k in known) <= order:
        return False
    sample = G._random_elements(rng)
    met = {i, class_of_type[(1,) * G.degree]}  # y's class and the identity's
    total = sum(sizes[k] for k in met)
    z = y
    idle = 0
    for _ in range(_CERTIFICATE_SAMPLES):
        if 2 * total > order:
            return True
        g = _decode(next(sample))
        z = z * g.inverse() * y * g  # z * y^g
        k = class_of_type.get(z.cycle_type())
        if k is None or k in met:
            idle += 1
            if idle == _CERTIFICATE_PATIENCE:
                return False
        else:
            # z lies in N(y), so N(y) holds N(z), the closure of class k
            new = closure_of.get(k, {k}) - met
            met |= new
            total += sum(sizes[c] for c in new)
            idle = 0
    return 2 * total > order


def _describe_subgroup(H: PermGroup, classes, minimal: bool) -> NormalSubgroupInfo:
    """The facts of a normal subgroup H, read off the classes of G that
    make it up, with no chain of H: its order is their total size, and
    fixed-point counts and element orders are class functions, so H is
    semiregular when no non-identity representative fixes a point."""
    try:
        invariants = abelian_invariants(H, classes)
    except PgaError:  # H is not abelian
        invariants = None
    return NormalSubgroupInfo(
        subgroup=H,
        order=factorize(sum(size for _, size in classes)),
        abelian_invariants=invariants,
        is_semiregular=all(g.fixed_point_count() == 0 for g, _ in classes if not g.is_identity()),
        is_minimal_normal=minimal,
    )

