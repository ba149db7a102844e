"""Input groups of the two workloads, as generator image lists.

Groups are kept as (name, degree, [image tuple, ...]) so that every pass
can rebuild fresh PermGroup objects, with no stabilizer chain or element
scan cached on them from an earlier pass.  A seed relabels the points
with a random permutation and shuffles the generator order; every value
the benchmark gates on (orders, pair-orbit ranks, closure orders, check
statuses) is invariant under that relabeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    gens: tuple  # image tuples


def relabel(spec: GroupSpec, rng: random.Random) -> GroupSpec:
    """Conjugate every generator by a random point permutation s.

    The relabeled generator sends s(i) to s(g(i)).
    """
    n = spec.degree
    s = list(range(n))
    rng.shuffle(s)
    gens = []
    for g in spec.gens:
        img = [0] * n
        for i, gi in enumerate(g):
            img[s[i]] = s[gi]
        gens.append(tuple(img))
    rng.shuffle(gens)
    return GroupSpec(spec.name, n, tuple(gens))


# ---- small permutation groups given by generator images -------------------

def _cycle(points, n):
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return tuple(img)


def cyclic(m):
    return m, [_cycle(range(m), m)]


def dihedral(m):
    return m, [_cycle(range(m), m), tuple((m - i) % m for i in range(m))]


def symmetric(m):
    return m, [_cycle((0, 1), m), _cycle(range(m), m)]


def alternating(m):
    big = range(m) if m % 2 else range(1, m)
    return m, [_cycle((0, 1, 2), m), _cycle(big, m)]


def frobenius(p, q):
    """x -> x+1 and x -> a*x mod p, a of multiplicative order q."""
    a = next(a for a in range(2, p) if pow(a, q, p) == 1 and all(pow(a, d, p) != 1 for d in range(1, q)))
    return p, [tuple((x + 1) % p for x in range(p)), tuple(a * x % p for x in range(p))]


def imprimitive_wreath(inner, outer):
    """K wr H on m*k points: K acts on block 0, H permutes the k blocks."""
    m, kgens = inner
    k, hgens = outer
    n = m * k
    gens = [tuple(g[x] if x < m else x for x in range(n)) for g in kgens]
    gens += [tuple(h[x // m] * m + x % m for x in range(n)) for h in hgens]
    return n, gens


def product_wreath_s2(inner):
    """K wr S2 in product action on m*m points: K on the first coordinate
    of (i, j) -> i*m + j, plus the coordinate swap."""
    m, kgens = inner
    n = m * m
    gens = [tuple(g[x // m] * m + x % m for x in range(n)) for g in kgens]
    gens.append(tuple((x % m) * m + x // m for x in range(n)))
    return n, gens


def spec(name, built) -> GroupSpec:
    degree, gens = built
    return GroupSpec(name, degree, tuple(gens))


# ---- workload inputs with the values the gate expects ----------------------

@dataclass(frozen=True)
class ClosureCase:
    spec: GroupSpec
    order: int
    rank: int
    closure_ratio: int  # |2-closure| / |G|


def closure_cases():
    """Groups of degree 24-121 whose 2-closure search and chain building
    do all the work; the element scan and the lattice never run.

    M11 wr S2 in product action on 144 points is left out: its cost moves
    from 6.3 s to 11.4 s with the relabeling alone (closure base of length
    13 to 16), so with one relabeling per seed it set the spread of the
    whole workload.
    """
    return [
        ClosureCase(spec("F11_5wrS2_prod121", product_wreath_s2(frobenius(11, 5))), 6050, 6, 1),
        ClosureCase(spec("S8wrS4", imprimitive_wreath(symmetric(8), symmetric(4))), 40320**4 * 24, 3, 1),
        ClosureCase(spec("A8wrC4", imprimitive_wreath(alternating(8), cyclic(4))), 20160**4 * 4, 5, 16),
        ClosureCase(spec("C2wrC16", imprimitive_wreath(cyclic(2), cyclic(16))), 2**16 * 16, 17, 1),
        ClosureCase(spec("D5wrC6", imprimitive_wreath(dihedral(5), cyclic(6))), 10**6 * 6, 8, 1),
        ClosureCase(spec("S3wrS8", imprimitive_wreath(symmetric(3), symmetric(8))), 6**8 * 40320, 3, 1),
    ]


def render_grp(spec: GroupSpec) -> str:
    """The group as .grp text, generators in image-list form."""
    lines = [f"name: {spec.name}", f"degree: {spec.degree}"]
    lines += ["img: " + " ".join(map(str, g)) for g in spec.gens]
    return "\n".join(lines) + "\n"


def corpus_order(name: str) -> int:
    """Order of a bundled corpus group, from the family named in its name."""
    family, _, rest = name.rpartition("_")
    if name == "m11_12":
        return 7920
    if name.startswith("elem_abelian_"):
        p, k = map(int, name.split("_")[2:])
        return p**k
    if name.startswith("frobenius_"):
        p, q = map(int, name.split("_")[1:])
        return p * q
    n = int(rest)
    return {
        "cyclic": n,
        "dihedral": 2 * n,
        "symmetric": factorial(n),
        "alternating": factorial(n) // 2,
    }[family]


# Checks that come out "verified" per corpus group; every other result is
# "vacuous".  Summed over the corpus this is the frozen status table of the
# acceptance suite (541 vacuous, 19 verified, 0 violated, 0 skipped).
CORPUS_VERIFIED = {
    "alternating_5": ("L2_1a",),
    "alternating_6": ("L2_1a",),
    "alternating_7": ("L2_1a",),
    "alternating_8": ("L2_1a",),
    "dihedral_10": ("L2_1b",),
    "dihedral_12": ("L2_1b",),
    "dihedral_6": ("L2_1b",),
    "m11_12": ("A1", "A2", "A3", "A4", "C2_3", "L2_1a", "L2_4i", "L2_4ii", "L2_6"),
    "symmetric_4": ("L2_1a",),
    "symmetric_6": ("L2_1a",),
    "symmetric_8": ("L2_1a",),
}
# The 35 bundled groups measured; a group added to corpus/ later is not
# part of this workload.
CORPUS_GROUPS = tuple(
    [f"alternating_{n}" for n in range(4, 9)]
    + [f"cyclic_{n}" for n in (3, 4, 5, 6, 8, 9, 10, 12)]
    + [f"dihedral_{n}" for n in (3, 4, 5, 6, 8, 10, 12)]
    + ["elem_abelian_2_2", "elem_abelian_2_3", "elem_abelian_3_2"]
    + ["frobenius_11_5", "frobenius_5_4", "frobenius_7_2", "frobenius_7_3", "frobenius_7_6"]
    + ["m11_12"]
    + [f"symmetric_{n}" for n in range(3, 9)]
)
