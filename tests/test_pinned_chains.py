"""Stabilizer chains pinned by digest.

A chain's base, each level's own strong generators and its transversal
decide enumeration order, witnesses and the generators a 2-closure
reports, so a change to how chains are built or searched must leave
every chain byte-identical.  Each digest covers, per chain: the base,
each level's own generators, its orbit points in the order they were
found and its transversal images in sorted order.

The groups are the bundled corpus and the six wreath products of the
benchmark's closure workload (perfbench/inputs.py), relabeled as its
seeds 1 and 2 relabel them, each with its 2-closure.
"""

import hashlib
import random
from math import factorial

import pytest

from pga.closure import two_closure
from pga.group import PermGroup, StabilizerChain
from pga.perm import Permutation

from oracles import transversal


def chain_digest(chains):
    h = hashlib.sha256()
    for chain in chains:
        for lvl in chain.levels:
            own = [g.images for g in lvl.own_gens]
            trans = transversal(lvl)
            images = sorted(trans.values())
            h.update(repr((lvl.point, own, list(trans), images)).encode())
        h.update(b";")
    return h.hexdigest()


# ---- the closure workload's groups, as generator image tuples -------------

def cycle(points, n):
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return tuple(img)


def cyclic(m):
    return m, [cycle(range(m), m)]


def dihedral(m):
    return m, [cycle(range(m), m), tuple((m - i) % m for i in range(m))]


def symmetric(m):
    return m, [cycle((0, 1), m), cycle(range(m), m)]


def alternating(m):
    return m, [cycle((0, 1, 2), m), cycle(range(m) if m % 2 else range(1, m), m)]


def frobenius(p, q):
    a = next(a for a in range(2, p) if pow(a, q, p) == 1 and all(pow(a, d, p) != 1 for d in range(1, q)))
    return p, [tuple((x + 1) % p for x in range(p)), tuple(a * x % p for x in range(p))]


def imprimitive_wreath(inner, outer):
    (m, kgens), (k, hgens) = inner, outer
    n = m * k
    gens = [tuple(g[x] if x < m else x for x in range(n)) for g in kgens]
    return n, gens + [tuple(h[x // m] * m + x % m for x in range(n)) for h in hgens]


def product_wreath_s2(inner):
    m, kgens = inner
    n = m * m
    gens = [tuple(g[x // m] * m + x % m for x in range(n)) for g in kgens]
    return n, gens + [tuple((x % m) * m + x // m for x in range(n))]


WORKLOAD = [
    (product_wreath_s2(frobenius(11, 5)), 6050),
    (imprimitive_wreath(symmetric(8), symmetric(4)), 40320**4 * 24),
    (imprimitive_wreath(alternating(8), cyclic(4)), 20160**4 * 4),
    (imprimitive_wreath(cyclic(2), cyclic(16)), 2**16 * 16),
    (imprimitive_wreath(dihedral(5), cyclic(6)), 10**6 * 6),
    (imprimitive_wreath(symmetric(3), symmetric(8)), 6**8 * factorial(8)),
]


def workload_groups(seed):
    """The groups under the seed's first relabeling: one generator draws
    a point permutation s for each group in turn, conjugates every
    generator by it (s(i) goes to s(g(i))) and shuffles their order."""
    rng = random.Random(f"{seed}:0")
    groups = []
    for (n, gens), order in WORKLOAD:
        s = list(range(n))
        rng.shuffle(s)
        relabeled = []
        for g in gens:
            img = [0] * n
            for i, gi in enumerate(g):
                img[s[i]] = s[gi]
            relabeled.append(tuple(img))
        rng.shuffle(relabeled)
        G = PermGroup(n, [Permutation(img) for img in relabeled])
        assert G.order() == order
        groups.append(G)
    return groups


class TestPinnedChains:
    def test_corpus_chains(self, corpus_entries):
        chains = [StabilizerChain(e.group.degree, e.group.generators) for e in corpus_entries]
        assert chain_digest(chains) == "c41dcd3d0264a58bc0be9052bd54eb31e9e8e013d1dc40a619b65b470b3d9a0c"

    def test_corpus_closure_chains(self, corpus_entries):
        chains = [two_closure(e.group).chain() for e in corpus_entries]
        assert chain_digest(chains) == "f50b1557acaed809fd8248f357dba5836113ac02861a091419b2b264c40f1414"

    @pytest.mark.parametrize(
        "seed, digest, closure_digest",
        [
            (
                1,
                "facde550f3e89a5330c90f899e9191b9fe4a4ecb3310bca7aaa726744d64a558",
                "02976f64ef7e8b7ed8c6fe6ab5d5cb6eeb94c9f428f8c47009dbe78d65301463",
            ),
            (
                2,
                "694120739ae160d04dd84128e7b5d213438b1d8c39f28403c74ad5a0a16673b4",
                "82b966c036de710ef328822392c34693c70ae0aed49d87016bf974336072e80f",
            ),
        ],
        ids=["seed1", "seed2"],
    )
    def test_closure_workload_chains(self, seed, digest, closure_digest):
        groups = workload_groups(seed)
        assert chain_digest(G.chain() for G in groups) == digest
        closures = [two_closure(G, degree_cap=G.degree) for G in groups]
        assert chain_digest(H.chain() for H in closures) == closure_digest
