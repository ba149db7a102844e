"""Independent brute-force oracles used to validate the fast paths.

Everything here works on raw image tuples with its own arithmetic, so a
bug in the library's chain, search or lattice code cannot hide: the
oracles share no code path with what they check.  The one exception is
FullSiftChain, the library's chain with a level that sifts every
Schreier generator, which pins down which ones the library may skip.
"""

from collections import Counter
from itertools import permutations
from math import lcm

from pga.group import StabilizerChain, _decode


def mul(a, b):
    """Left-to-right composition of image tuples."""
    return tuple(b[x] for x in a)


def naive_closure(gens, limit=None):
    """All products of the generators, as a set of image tuples.

    With a limit, returns None as soon as the closure grows past it.
    """
    if not gens:
        return {()}
    n = len(gens[0])
    ident = tuple(range(n))
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                c = mul(e, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if limit is not None and len(els) > limit:
                        return None
        frontier = new
    return els


def pair_orbit_ids(gens, n):
    """Map each ordered pair to the least pair of its orbit under the gens."""
    ids = {}
    for a in range(n):
        for b in range(n):
            if (a, b) in ids:
                continue
            orbit = {(a, b)}
            stack = [(a, b)]
            while stack:
                x, y = stack.pop()
                for g in gens:
                    p = (g[x], g[y])
                    if p not in orbit:
                        orbit.add(p)
                        stack.append(p)
            rep = min(orbit)
            for p in orbit:
                ids[p] = rep
    return ids


def brute_two_closure(gens, n):
    """All of Sym(n) filtered by preservation of every pair orbit."""
    ids = pair_orbit_ids(gens, n)
    keep = set()
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for img in permutations(range(n)):
        if all(ids[(img[a], img[b])] == ids[(a, b)] for a, b in pairs):
            keep.add(img)
    return keep


def all_subgroups(gens, n):
    """Every subgroup of the group generated by gens, as element frozensets.

    Breadth-first: seed with all cyclic subgroups, then close under join
    with a cyclic subgroup; any subgroup is a join of its own cyclic
    subgroups, so all of them appear.
    """
    elements = sorted(naive_closure(gens))
    ident = tuple(range(n))
    cyclics = {}
    for e in elements:
        cyc = {ident}
        x = e
        while x != ident:
            cyc.add(x)
            x = mul(x, e)
        cyclics.setdefault(frozenset(cyc), [e])
    subgroups = dict(cyclics)
    frontier = list(cyclics.items())
    while frontier:
        sub, sub_gens = frontier.pop()
        for cyc, cyc_gens in cyclics.items():
            if cyc <= sub:
                continue
            join_gens = sub_gens + cyc_gens
            join = frozenset(naive_closure(join_gens))
            if join not in subgroups:
                subgroups[join] = join_gens
                frontier.append((join, join_gens))
    return set(subgroups)


def is_normal(subgroup_elements, gens):
    """Whether a subgroup (element set) is normalized by the generators."""
    inv = {}
    for g in gens:
        gi = [0] * len(g)
        for i, v in enumerate(g):
            gi[v] = i
        inv[g] = tuple(gi)
    for s in subgroup_elements:
        for g in gens:
            if mul(mul(inv[g], s), g) not in subgroup_elements:
                return False
    return True


def fixed_count(img):
    return sum(1 for i, v in enumerate(img) if i == v)


def inverse(img):
    inv = [0] * len(img)
    for i, v in enumerate(img):
        inv[v] = i
    return tuple(inv)


def transversal(lvl):
    """A stabilizer chain level's transversal as {orbit point: image
    tuple of its element}, in the order the orbit was found, read off the
    codes the level stores (byte strings or image tuples)."""
    return {b: tuple(code) for b, (code, _) in lvl.codes.items()}


def strip(levels, g, start=0):
    """Sift the image tuple g through chain levels, given as (base point,
    {orbit point: transversal image tuple}) pairs, from level start on:
    at each level multiply by the inverse of the representative of g's
    image of the base point.  Returns the residue, left as it is at the
    first level whose orbit lacks that image."""
    for point, trans in levels[start:]:
        b = g[point]
        if b == point:
            continue
        if b not in trans:
            return g
        g = mul(g, inverse(trans[b]))
    return g


def seeded_uniform_elements(degree, transversals, rng, count):
    """count seeded uniform elements of a group of the given degree, as
    image tuples, given its chain's transversals (see transversal) from
    the first level to the last.  Each element takes one rng.choice per
    level over that level's transversal elements in the order the orbit
    was found, the deepest level first, and is the product u_last ...
    u_0 of the choices, composed left to right."""
    drawn = []
    for _ in range(count):
        g = tuple(range(degree))
        for trans in reversed(transversals):
            g = mul(g, rng.choice(list(trans.values())))
        drawn.append(g)
    return drawn


def naive_classes(gens):
    """Conjugacy classes of the group generated by gens, as a list of
    element frozensets: each class is {g^-1 x g} over every element g."""
    elements = naive_closure(gens)
    pairs = [(inverse(g), g) for g in elements]
    classes, placed = [], set()
    for x in sorted(elements):
        if x in placed:
            continue
        cls = frozenset(mul(mul(g_inv, x), g) for g_inv, g in pairs)
        placed |= cls
        classes.append(cls)
    return classes


def element_order(img):
    ident = tuple(range(len(img)))
    k, x = 1, img
    while x != ident:
        x = mul(x, img)
        k += 1
    return k


def return_times(img):
    """For each point, how many applications of img bring it back."""
    times = []
    for x in range(len(img)):
        k, y = 1, img[x]
        while y != x:
            k, y = k + 1, img[y]
        times.append(k)
    return times


def cycle_type(img):
    """Sorted cycle lengths, fixed points included: a point comes back
    after its cycle's length, and a cycle of length L has L points."""
    counts = Counter(return_times(img))
    return tuple(sorted(length for length, c in counts.items() for _ in range(c // length)))


def order(img):
    """Least k with img**k the identity: each point comes back exactly at
    the multiples of its return time, so k is their lcm."""
    return lcm(*return_times(img))


def power(img, k):
    x = tuple(range(len(img)))
    for _ in range(k):
        x = mul(x, img)
    return x


def count_signature(color, rank, x, cells):
    """Per cell, the counts of each arc color out of x into the cell and
    into x from the cell, as a (out counts, in counts) pair of tuples."""
    parts = []
    for cell in cells:
        out = [0] * rank
        inn = [0] * rank
        for z in cell:
            out[color[x][z]] += 1
            inn[color[z][x]] += 1
        parts.append((tuple(out), tuple(inn)))
    return tuple(parts)


def count_refine_pair(color, rank, pairs):
    """Refine matched (domain, image) cell lists by explicit color counts.

    Each round splits every cell of both sides, singletons aside, by
    count_signature against that side's cells; fragments replace their
    cell in order of their signatures.  Returns the stable pair list, or
    None when the two sides split differently.
    """
    pairs = [(tuple(p), tuple(q)) for p, q in pairs]
    while True:
        p_cells = [p for p, _ in pairs]
        q_cells = [q for _, q in pairs]
        new_pairs = []
        for cp, cq in pairs:
            if len(cp) == 1:
                new_pairs.append((cp, cq))
                continue
            by_p, by_q = {}, {}
            for x in cp:
                by_p.setdefault(count_signature(color, rank, x, p_cells), []).append(x)
            for y in cq:
                by_q.setdefault(count_signature(color, rank, y, q_cells), []).append(y)
            if sorted(by_p) != sorted(by_q):
                return None
            for k in sorted(by_p):
                if len(by_p[k]) != len(by_q[k]):
                    return None
                new_pairs.append((tuple(by_p[k]), tuple(by_q[k])))
        if len(new_pairs) == len(pairs):
            return pairs
        pairs = new_pairs


def direct_arc_weights(color):
    """The refinement weight of every arc (x, z), each from its own
    powers: with B = n + 1, c the color of (x, z) in the block [lo, hi]
    of the colors in row x, h the number of blocks of larger colors and
    m the largest block size, h * B**m + B**(hi - c)."""
    B = len(color) + 1
    blocks = sorted({(min(row), max(row)) for row in color})
    m = max(hi - lo + 1 for lo, hi in blocks)
    weights = []
    for row in color:
        lo, hi = min(row), max(row)
        h = sum(block > (lo, hi) for block in blocks)
        weights.append([h * B**m + B ** (hi - c) for c in row])
    return weights


class FullSiftChain(StabilizerChain):
    """A stabilizer chain whose levels sift the Schreier generators of
    every strong generator of the level's group.  StabilizerChain stops
    sifting a level once generators known to generate its group are
    through, and by Schreier's lemma marks the rest as sifted, so both
    must build the same chain: base, generators, transversals and the
    checked record, keyed by each generator's table.  It rebuilds its own
    lists on every visit rather than read those its completion keeps."""

    __slots__ = ()

    def _grow_level(self, i, tables, origins):
        lvl = self.levels[i]
        tables = self._tables_below(i)  # rebuilt, not the list given
        codes, checked = lvl.codes, lvl.checked
        done = [checked.get(table) for table, _ in tables]
        points = self._walk(lvl, tables, [t for t, k in zip(tables, done) if k is None])
        for (table, _), k in zip(tables, done):
            if k is None:
                checked[table] = 0
        product = self._codec[2]
        ident = codes[lvl.point][0]
        for (table, _), start in zip(tables, done):
            for k in range(start or 0, len(points)):
                h = self._sift(product(codes[points[k]][0], table), i)
                if h != ident:
                    checked[table] = k
                    return self._insert(_decode(h))
            checked[table] = len(points)
        return None
