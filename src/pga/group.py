"""Permutation groups given by generators.

Order, membership and element enumeration go through a deterministic
(non-randomized) Schreier-Sims stabilizer chain.  Base points are chosen
greedily as the least point moved by the generator being installed; a
caller may force a base prefix, which is how point stabilizers are cut
out.  Levels are completed from the deepest upward: a level's orbit is
extended, its Schreier generators are sifted through the deeper levels,
and a residue that does not sift is installed as a new strong generator
at the level where it got stuck, from which completion resumes.  The
reported order is exact once every level is complete.

Levels only grow: a transversal keeps its elements, and each level
records which generators its orbit has been walked with and which
Schreier generators are known to sift, so an orbit point meets an old
generator once and no Schreier generator is sifted twice.  The Schreier
generator u_b s u_s(b)^-1 of orbit point b and generator s is sifted as
u_b s from its own level, whose first strip step forms it, which saves
one product; and a strip stops with the identity as soon as the running
element equals the level's transversal element, which saves the last.
A chain is built this way from its generators, and a chain not yet
owned by a group grows the same way by a new generator
(StabilizerChain.extend), completing only the levels that changed.  A
group is immutable once constructed; its chain is built lazily and
cached, after which the value can be shared freely between threads.

The conjugacy classes come from one walk of the elements and a
conjugation search from each element not yet met.  Up to degree 256 the
search carries an element as the bytes of its images, so a conjugate is
two bytes.translate calls and the set of elements met holds short byte
strings with cached hashes; above degree 256, where a point no longer
fits in a byte, it carries image tuples.
"""

from __future__ import annotations

from operator import itemgetter

from .config import DEFAULT_CAPS
from .errors import (
    CapExceededError,
    DegreeMismatchError,
    InvalidPermutationError,
    PointOutOfRangeError,
)
from .perm import Permutation

class _Level:
    __slots__ = ("point", "own_gens", "transversal", "inverses", "checked")

    def __init__(self, point):
        self.point = point
        self.own_gens = []
        self.transversal = {}
        self.inverses = {}  # orbit point b -> transversal[b].inverse()
        # generator s -> k: the orbit has been walked with s, and the
        # Schreier generators of s with the first k orbit points (in
        # transversal order) are known to sift
        self.checked = {}


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
        self._complete(len(self.levels) - 1)

    def _insert(self, g):
        """Attach a non-identity generator at the first level whose base
        point it moves; return that level."""
        i = 0
        while i < len(self.levels) and g.images[self.levels[i].point] == self.levels[i].point:
            i += 1
        if i == len(self.levels):
            moved = next(p for p in range(self.degree) if g.images[p] != p)
            self.levels.append(_Level(moved))
        self.levels[i].own_gens.append(g)
        return i

    def extend(self, g):
        """Grow the chain in place to the group generated by its group and g.

        g must not be a member.  It joins the first level whose base point
        it moves; the groups of the deeper levels fix that level's base
        prefix and so never contain g, and they stay complete.  Only that
        level and the levels above it are completed again, and there only
        the Schreier generators not yet checked are sifted.
        """
        self._complete(self._insert(g))

    def _complete(self, i):
        """Complete levels i, i-1, ..., 0 in turn, going back to the level
        where a residue got stuck whenever one is installed."""
        while i >= 0:
            stuck = self._grow_level(i)
            i = i - 1 if stuck is None else stuck

    def _grow_level(self, i):
        """Extend level i's orbit and sift its unchecked Schreier generators.

        The transversal keeps its elements and only gains the new orbit
        points, so a Schreier generator checked before is unchanged and
        still lies in the deeper groups, which only grow.  The orbit is
        closed under every generator it was walked with (the keys of
        checked), so the walk follows only generators added since from
        the old points, and every generator from the new ones.  On the
        first residue that does not sift, install it at the level where
        sifting got stuck (it fixes every base point above) and return
        that level for reprocessing; return None once every Schreier
        generator of the level is checked.
        """
        lvl = self.levels[i]
        gens = self.strong_generators_below(i)
        trans, invs, checked = lvl.transversal, lvl.inverses, lvl.checked
        fresh = [s for s in gens if s not in checked]
        points = list(trans)
        old = len(points)
        if not trans:
            trans[lvl.point] = invs[lvl.point] = Permutation.identity(self.degree)
            points.append(lvl.point)
        for k, b in enumerate(points):  # grows while it is walked
            u = trans[b]
            for s in fresh if k < old else gens:
                c = s.images[b]
                if c not in trans:
                    trans[c] = u_c = u * s
                    invs[c] = u_c.inverse()
                    points.append(c)
        for s in fresh:
            checked[s] = 0
        for s in gens:
            for k in range(checked[s], len(points)):
                b = points[k]
                # u_b s maps the base point to s(b), so its first strip
                # step at this level forms the Schreier generator
                # u_b s u_s(b)^-1, and the rest strips that below
                h = self._strip(trans[b] * s, i)
                if not h.is_identity():
                    checked[s] = k
                    return self._insert(h)
            checked[s] = len(points)
        return None

    def _strip(self, g, start=0):
        """Reduce g by transversal representatives from level start on;
        return the residue.  Once the running element is the level's
        representative itself, the residue is the identity, and the
        product that would show it is skipped."""
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            b = g.images[lvl.point]
            if b == lvl.point:
                continue
            u = lvl.transversal.get(b)
            if u is None:
                return g
            if u.images == g.images:
                return lvl.transversal[lvl.point]  # the identity
            g = g * lvl.inverses[b]
        return g

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g) -> bool:
        return self._strip(g).is_identity()

    def strong_generators_below(self, i):
        """Strong generators fixing the first i base points: the generators
        of the i-th group on the chain (own plus all deeper)."""
        return [g for lvl in self.levels[i:] for g in lvl.own_gens]

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

    @classmethod
    def _from_chain(cls, chain: StabilizerChain, generators) -> "PermGroup":
        """The group of the given generators, taking as its chain one
        already built from exactly those generators (not copied)."""
        G = cls(chain.degree, generators)
        G._chain = chain
        return G

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"degree {g.degree} element tested against degree {self.degree} group"
            )
        return self.chain().contains(g)

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

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, via a chain whose base is forced to start there."""
        if not 0 <= point < self.degree:
            raise PointOutOfRangeError(f"point {point} out of range")
        chain = StabilizerChain(self.degree, self.generators, base_prefix=(point,))
        return PermGroup(self.degree, chain.strong_generators_below(1))

    def elements(self, cap: int = DEFAULT_CAPS.enumeration_cap):
        """Iterate all elements; refuses to start if the order exceeds the cap."""
        n = self.order()
        if n > cap:
            raise CapExceededError(f"group order {n} exceeds enumeration cap {cap}")
        return self.chain().iter_elements()

    def conjugacy_classes(self, cap: int = DEFAULT_CAPS.enumeration_cap) -> list:
        """(representative, class size) pairs, one per conjugacy class.

        One walk of the elements: each element not yet seen starts a
        conjugation search over the generators, so the classes come in
        the order the walk first meets them and each representative is
        the first element of its class in that walk.  The walk stops once
        the class sizes found sum to the order, as every later element
        lies in a class already found; the searches still conjugate every
        element by every generator.  They run on byte strings up to
        degree 256 and on image tuples above it, with the same table
        either way.  The table is cached; like elements(), it refuses a
        group whose order exceeds the cap.
        """
        walk = self.elements(cap)
        if self._classes is None:
            # x^g = g^-1 x g sends point g(i) to g(x(i)), so its image of i
            # is g[x[g_inv[i]]].  Up to degree 256 an element is the bytes
            # of its images: g_inv.translate(x + tail) reads x at g_inv[i],
            # tail pads x to the 256-entry table translate needs, and
            # .translate(g) maps each image through g.  Above degree 256 it
            # is its image tuple, conjugated by itemgetter; a generator is
            # not the identity, so the degree is at least 2 and itemgetter
            # returns a tuple.
            small = self.degree <= 256
            if small:
                tail = bytes(range(self.degree, 256))
                gens = [(bytes(g.images) + tail, bytes(g.inverse().images)) for g in self.generators]
                encode = bytes
            else:
                gens = [(g.images, itemgetter(*g.inverse().images)) for g in self.generators]
                encode = tuple
            seen = set()
            classes = []
            left = self.order()
            for e in walk:
                x = encode(e.images)
                if x in seen:
                    continue
                seen.add(x)
                frontier = [x]
                size = 1
                while frontier:
                    x = frontier.pop()
                    for g, g_inv in gens:
                        c = g_inv.translate(x + tail).translate(g) if small else itemgetter(*g_inv(x))(g)
                        if c not in seen:
                            seen.add(c)
                            frontier.append(c)
                            size += 1
                classes.append((e, size))
                left -= size
                if not left:
                    break  # every later element is in a class already found
            self._classes = classes
        return self._classes
