"""Permutation groups given by generators.

Order, membership and element enumeration go through a deterministic
(non-randomized) Schreier-Sims stabilizer chain.  Base points are chosen
greedily as the least point moved by the generator being installed; a
caller may force a base prefix, which is how point stabilizers are cut
out.  At each level every Schreier generator is sifted through the
deeper levels, and residues are installed as new strong generators until
the chain is self-consistent, so the reported order is exact.

A group is immutable once constructed; the chain is built lazily and
cached, after which the value can be shared freely between threads.
"""

from __future__ import annotations

from .errors import (
    CapExceededError,
    DegreeMismatchError,
    InvalidPermutationError,
    PointOutOfRangeError,
)
from .perm import Permutation

DEFAULT_ENUMERATION_CAP = 1_000_000


class _Level:
    __slots__ = ("point", "own_gens", "transversal", "inverses")

    def __init__(self, point):
        self.point = point
        self.own_gens = []
        self.transversal = {}
        self.inverses = {}  # orbit point b -> transversal[b].inverse()


class StabilizerChain:
    """Base, transversals and strong generators for a generated group."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.levels = []
        for p in base_prefix:
            if not 0 <= p < degree:
                raise PointOutOfRangeError(f"base point {p} out of range")
            self.levels.append(_Level(p))
        for g in generators:
            self._insert(g)
        self._complete()

    def _insert(self, g):
        """Attach a non-identity generator at the first level whose base point it moves."""
        i = 0
        while i < len(self.levels) and g.images[self.levels[i].point] == self.levels[i].point:
            i += 1
        if i == len(self.levels):
            moved = next(p for p in range(self.degree) if g.images[p] != p)
            self.levels.append(_Level(moved))
        self.levels[i].own_gens.append(g)

    def _level_gens(self, i):
        """Generators of the i-th group on the chain (own plus all deeper)."""
        return [g for lvl in self.levels[i:] for g in lvl.own_gens]

    def _rebuild_transversal(self, i):
        lvl = self.levels[i]
        gens = self._level_gens(i)
        trans = {lvl.point: Permutation.identity(self.degree)}
        queue = [lvl.point]
        while queue:
            b = queue.pop(0)
            u = trans[b]
            for s in gens:
                c = s.images[b]
                if c not in trans:
                    trans[c] = u * s
                    queue.append(c)
        lvl.transversal = trans
        lvl.inverses = {b: u.inverse() for b, u in trans.items()}

    def _strip(self, g, start=0):
        """Reduce g by transversal representatives; return (residue, stuck level)."""
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            b = g.images[lvl.point]
            if b == lvl.point:
                continue
            u_inv = lvl.inverses.get(b)
            if u_inv is None:
                return g, j
            g = g * u_inv
        return g, len(self.levels)

    def _close_level(self, i):
        """Sift all Schreier generators of level i.

        On a failure, install the residue at the level where sifting got
        stuck and return that level for reprocessing; return None once
        the level is clean.
        """
        lvl = self.levels[i]
        gens = self._level_gens(i)
        for b in sorted(lvl.transversal):
            u = lvl.transversal[b]
            for s in gens:
                c = s.images[b]
                sg = u * s * lvl.inverses[c]
                if sg.is_identity():
                    continue
                h, j = self._strip(sg, i + 1)
                if h.is_identity():
                    continue
                if j == len(self.levels):
                    moved = next(p for p in range(self.degree) if h.images[p] != p)
                    self.levels.append(_Level(moved))
                self.levels[j].own_gens.append(h)
                return j
        return None

    def _complete(self):
        i = len(self.levels) - 1
        while i >= 0:
            self._rebuild_transversal(i)
            stuck = self._close_level(i)
            i = i - 1 if stuck is None else stuck

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g) -> bool:
        residue, _ = self._strip(g)
        return residue.is_identity()

    def strong_generators_below(self, i):
        """Strong generators fixing the first i base points."""
        return self._level_gens(i)

    def iter_elements(self):
        """Yield every group element exactly once (transversal products)."""
        ident = Permutation.identity(self.degree)
        if not self.levels:
            yield ident
            return
        reps = [[lvl.transversal[b] for b in sorted(lvl.transversal)] for lvl in self.levels]

        def rec(i, acc):
            if i == 0:
                for u in reps[0]:
                    yield acc * u
                return
            for u in reps[i]:
                yield from rec(i - 1, acc * u)

        yield from rec(len(reps) - 1, ident)


class PermGroup:
    """Group generated by permutations of a common degree."""

    __slots__ = ("degree", "generators", "_chain", "_classes")

    def __init__(self, degree, generators=()):
        if degree < 1:
            raise InvalidPermutationError(f"degree must be at least 1, got {degree}")
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator of degree {g.degree} in a group of degree {degree}"
                )
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None
        self._classes = None

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def chain_with_base(self, base_prefix) -> StabilizerChain:
        """A fresh chain whose base starts with the given points (not cached)."""
        return StabilizerChain(self.degree, self.generators, base_prefix=base_prefix)

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return not self.generators

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"degree {g.degree} element tested against degree {self.degree} group"
            )
        return self.chain().contains(g)

    def __contains__(self, g) -> bool:
        return self.contains(g)

    def orbit(self, point: int) -> frozenset:
        if not 0 <= point < self.degree:
            raise PointOutOfRangeError(f"point {point} out of range")
        seen = {point}
        queue = [point]
        while queue:
            a = queue.pop()
            for g in self.generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return frozenset(seen)

    def orbits(self) -> list:
        """Orbit partition of the point set, blocks sorted by least element."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            a = min(remaining)
            orb = self.orbit(a)
            out.append(orb)
            remaining -= orb
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, via a chain whose base is forced to start there."""
        if not 0 <= point < self.degree:
            raise PointOutOfRangeError(f"point {point} out of range")
        chain = self.chain_with_base((point,))
        return PermGroup(self.degree, chain.strong_generators_below(1))

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP):
        """Iterate all elements; refuses to start if the order exceeds the cap."""
        n = self.order()
        if n > cap:
            raise CapExceededError(
                f"group order {n} exceeds enumeration cap {cap}", needed=n, cap=cap
            )
        return self.chain().iter_elements()

    def conjugacy_classes(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
        """(representative, class size) pairs, one per conjugacy class.

        One walk of the elements: each element not yet seen starts a
        conjugation breadth-first search over the generators, so the
        classes come in the order the walk first meets them and each
        representative is the first element of its class in that walk.
        The table is cached; like elements(), it refuses a group whose
        order exceeds the cap.
        """
        walk = self.elements(cap)
        if self._classes is None:
            # x^g = g^-1 x g sends point g(i) to g(x(i)), so its image of i
            # is g[x[g_inv[i]]]
            gens = [(g.images, g.inverse().images) for g in self.generators]
            seen = set()
            classes = []
            for e in walk:
                if e.images in seen:
                    continue
                seen.add(e.images)
                frontier = [e.images]
                size = 1
                while frontier:
                    x = frontier.pop()
                    for g, g_inv in gens:
                        c = tuple([g[x[i]] for i in g_inv])
                        if c not in seen:
                            seen.add(c)
                            frontier.append(c)
                            size += 1
                classes.append((e, size))
            self._classes = classes
        return self._classes
