"""Permutation groups given by generators.

Order, membership and element enumeration go through a deterministic
(non-randomized) Schreier-Sims stabilizer chain.  Base points are chosen
greedily as the least point moved by the generator being installed; a
caller may force a base prefix.  Levels are completed from the deepest
upward: a level's orbit is extended, its Schreier generators are sifted
through the deeper levels, and a residue that does not sift is installed
as a new strong generator at the level where it got stuck, from which
completion resumes.  The reported order is exact once every level is
complete.  A level stops sifting once the generators no sift at or below
it left are through: by Schreier's lemma the rest would sift, and the
chain is unchanged.

Levels only grow: a level starts with the identity at its base point, a
transversal keeps its elements, and each level records, by each
generator's table (see below), which generators its orbit has been
walked with and which Schreier generators are known to sift, so an
orbit point meets an old generator once and no Schreier generator is
sifted twice.  A completion keeps the lists of the strong generators at
and below each level only while it runs, rebuilding those an install
changed.  The Schreier generator u_b s u_s(b)^-1 of
orbit point b and generator s is sifted as u_b s from its own level,
whose first strip step forms it, which saves one product; and a strip
stops with the identity as soon as the running element equals the
level's transversal element, which saves the last.

A chain is built this way from its generators, and a chain not yet
owned by a group grows the same way by a new generator
(StabilizerChain.extend), completing only the levels that changed.
Where a strong generating set for a known base is at hand, as in the
2-closure's search, each level's orbit is walked once, with the same
walk, and nothing is sifted (_walk_level).  A chain of a group on
another base (PermGroup._chain_on) sifts the codes of seeded uniform
elements, drawn off the group's own chain, decodes and installs each
residue that is not the identity, walks the orbits of its level and
those above with it, skipping an orbit the residue maps into itself,
and is certified complete once its orbit sizes multiply to the group's
order; a point stabilizer is the levels below the first of the chain on
a base starting at its point.  A group is immutable once constructed;
its chain is built lazily and cached, after which the value can be
shared freely between threads.

The chain stores each coset representative once, as a code, and the
walk, the sift and the element walk run on codes.  Up to degree 256 a
code is the bytes of the images and a product is one bytes.translate
call against the 256-byte table of its right factor; each level keeps,
for every orbit point b, the code of u_b and the table of u_b^-1, and
each strong generator s has its table and the code of s^-1.  A Schreier
generator is then one translate, a strip step another, the early exit a
comparison of byte strings, and the inverse of a new transversal element
u_b s is s^-1 u_b^-1, one more translate.  A generator's table also
keys the levels' checked records: a bytes object caches its hash, so a
lookup does not hash the images again.  Above degree 256, where a
point no longer fits in a byte, codes and tables are image tuples and a
product is an itemgetter call.  A code becomes a Permutation only where
one is installed as a strong generator or handed to a caller.

The conjugacy classes come from one walk of the element codes and a
conjugation search from each element not yet met.  The search carries
an element as its code, with the same choice at degree 256 (_codec
makes it for both): up to that degree a conjugate is two
bytes.translate calls, and the set of elements met holds short byte
strings with cached hashes; above it, it holds image tuples.  The
search goes one breadth-first layer at a time: the tables of the
layer's elements are formed once, the whole layer is conjugated by one
generator and then by the next, and the class size is the growth of
the set met, so no generator is unpacked and no counter bumped per
element.  The layer is a list, and the set only answers membership, so
no result depends on string hashing.  The walk's last level is one map
per prefix (_products), so no element passes through a generator frame.
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter

from .config import DEFAULT_CAPS
from .errors import CapExceededError, PgaError
from .perm import Permutation

_REBASE_SEED = 1  # of the elements PermGroup._chain_on grows a chain from


def _codec(degree):
    """How the chain and the class search carry a permutation of the
    given degree, as (encode, tail, product).  encode(images) is its
    code, code + tail its table, and product(code of x, table of y) the
    code of x * y.  Up to degree 256 a code is the bytes of the images, a
    table the 256 bytes bytes.translate needs and a product one translate
    call; above it, where a point no longer fits in a byte, a code and a
    table are the image tuple and a product is an itemgetter call (the
    degree is then at least 2, so itemgetter returns a tuple)."""
    if degree <= 256:
        return bytes, bytes(range(degree, 256)), bytes.translate
    return tuple, (), _tuple_product


def _tuple_product(x, table):
    return itemgetter(*x)(table)


def _decode(code):
    return Permutation._trusted(tuple(code))


def _products(tables, i, acc, product):
    """The codes of acc * u_i * ... * u_0 for every choice of the table of
    u_j in tables[j], the deepest level varying slowest.  Only levels
    above 0 recurse: level 0 is one map per prefix, formed when the walk
    reaches it, so no element passes through a Python frame."""
    if i == 0:
        return map(product, itertools.repeat(acc), tables[0])
    return itertools.chain.from_iterable(_products(tables, i - 1, product(acc, t), product) for t in tables[i])


def _orbit(points, gens):
    """The set of points reached from points under the permutations gens."""
    seen = set(points)
    stack = list(points)
    while stack:
        a = stack.pop()
        for g in gens:
            b = g.images[a]
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


class _Level:
    __slots__ = ("point", "own_gens", "own_tables", "origins", "codes", "checked")

    def __init__(self, point, ident, tail):
        self.point = point
        self.own_gens = []
        self.own_tables = []  # (table of s, code of s^-1) for s in own_gens
        self.origins = []  # per s in own_gens, the level whose sift left it, or -1
        self.codes = {point: (ident, ident + tail)}  # orbit point b -> (code of u_b, table of u_b^-1)
        # table of generator s -> k: the orbit has been walked with s, and
        # the Schreier generators of s with the first k orbit points (in
        # transversal order) are known to sift; up to degree 256 a table
        # is a bytes object, which caches its hash
        self.checked = {}


class StabilizerChain:
    """Base, transversals and strong generators for a generated group."""

    __slots__ = ("degree", "levels", "_codec")

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.levels = []
        self._codec = _codec(degree)
        encode, tail, _ = self._codec
        for p in base_prefix:
            if not 0 <= p < degree:
                raise PgaError(f"base point {p} out of range")
            self.levels.append(_Level(p, encode(range(degree)), tail))
        for g in generators:
            self._insert(g)
        if generators:  # a bare base is complete as it stands
            self._complete(len(self.levels) - 1)

    def _walk_level(self, i):
        """Walk level i's orbit under the strong generators fixing the first
        i base points, all of which must be installed, and record each as
        checked on the whole orbit; no other level is read."""
        lvl = self.levels[i]
        tables = self._tables_below(i)
        size = len(self._walk(lvl, tables, tables))
        lvl.checked = dict.fromkeys([table for table, _ in tables], size)

    def _insert(self, g, origin=-1):
        """Attach a non-identity generator at the first level whose base
        point it moves, recording its origin; return that level."""
        i = 0
        while i < len(self.levels) and g.images[self.levels[i].point] == self.levels[i].point:
            i += 1
        encode, tail, _ = self._codec
        if i == len(self.levels):
            moved = next(p for p in range(self.degree) if g.images[p] != p)
            self.levels.append(_Level(moved, encode(range(self.degree)), tail))
        self.levels[i].own_gens.append(g)
        self.levels[i].own_tables.append((encode(g.images) + tail, encode(g.inverse().images)))
        self.levels[i].origins.append(origin)
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
        where a residue got stuck whenever one is installed.  A level reads
        the (table of s, code of s^-1) pairs and the origins of the strong
        generators s at and below it, its own prepended to the next
        level's; an install at level k changes those of levels k and above,
        which are popped off the stack."""
        stack = [([], [])]  # stack[m]: the lists of level len(self.levels) - m
        while i >= 0:
            while len(stack) <= len(self.levels) - i:
                own = self.levels[len(self.levels) - len(stack)]
                tables, origins = stack[-1]
                stack.append((own.own_tables + tables, own.origins + origins))
            stuck = self._grow_level(i, *stack[-1])
            if stuck is None:
                i -= 1
            else:
                del stack[len(self.levels) - stuck :]
                i = stuck

    def _grow_level(self, i, tables, origins):
        """Extend level i's orbit and sift its unchecked Schreier generators.

        The transversal keeps its elements and only gains the new orbit
        points, so a Schreier generator checked before is unchanged and
        still lies in the deeper groups, which only grow.  The orbit is
        closed under every generator it was walked with (whose tables are
        the keys of checked), so only the generators added since are new.
        On the first residue that does not sift, install it at the level
        where sifting got stuck (it fixes every base point above) and
        return that level for reprocessing; return None once every
        Schreier generator of the level is checked.

        tables and origins are the lists of the generators at and below
        level i (see _complete).  Let T be those whose origin lies above it
        (-1 for a given one).  T generates the level's group, as a residue
        left by level k >= i is a product of earlier generators of level
        k's group.  By Schreier's lemma the Schreier generators of T then
        generate the stabilizer, so once the last of T in list order is
        through, the rest sift through the complete deeper levels: they are
        marked checked unsifted, as a full sift would mark them, and the
        chain is unchanged.
        """
        lvl = self.levels[i]
        codes, checked = lvl.codes, lvl.checked
        done = [checked.get(table) for table, _ in tables]  # None for a generator new here
        fresh = [t for t, k in zip(tables, done) if k is None]
        points = self._walk(lvl, tables, fresh)
        for table, _ in fresh:
            checked[table] = 0
        n = len(points)
        needed = len(origins)  # tables[:needed] ends with the last of T
        while needed and origins[needed - 1] >= i:
            needed -= 1
        product = self._codec[2]
        ident = codes[lvl.point][0]
        for j, start in enumerate(done):
            if start == n:
                continue  # checked on the whole orbit
            table = tables[j][0]
            # past the last generator of T, nothing is sifted
            for k in range(start or 0, n if j < needed else 0):
                # u_b s maps the base point to s(b), so its first strip
                # step at this level forms the Schreier generator
                # u_b s u_s(b)^-1, and the rest strips that below
                h = self._sift(product(codes[points[k]][0], table), i)
                if h != ident:
                    checked[table] = k
                    return self._insert(_decode(h), i)
            checked[table] = n
        return None

    def _walk(self, lvl, tables, fresh):
        """Extend lvl's orbit: its old points under the generators whose
        tables are fresh, every point it gains under all of tables.  A
        point c first met from b by s gets the code of the transversal
        element u_b s and the table of its inverse s^-1 u_b^-1, and the old
        codes stay; b's codes are read only then, as most walks of old
        points meet no new one.  Return the orbit points in transversal
        order."""
        _, tail, product = self._codec
        codes = lvl.codes
        points = list(codes)
        old = len(points)
        for k, b in enumerate(points):  # grows while it is walked
            for table, s_inv in fresh if k < old else tables:
                c = table[b]
                if c not in codes:
                    u, u_inv = codes[b]
                    codes[c] = (product(u, table), product(s_inv, u_inv) + tail)
                    points.append(c)
        return points

    def _sift(self, g, start=0):
        """Reduce the code g by transversal representatives from level
        start on; return the residue's code.  Once the running element is
        the level's representative itself, the residue is the identity,
        and the product that would show it is skipped."""
        product = self._codec[2]
        for lvl in self.levels[start:]:
            b = g[lvl.point]
            if b == lvl.point:
                continue
            rep = lvl.codes.get(b)
            if rep is None:
                return g
            if rep[0] == g:
                return lvl.codes[lvl.point][0]  # the identity
            g = product(g, rep[1])
        return g

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.codes)
        return n

    def contains(self, g) -> bool:
        encode = self._codec[0]
        return self._sift(encode(g.images)) == encode(range(self.degree))

    def strong_generators_below(self, i):
        """Strong generators fixing the first i base points: the generators
        of the i-th group on the chain (own plus all deeper)."""
        return [g for lvl in self.levels[i:] for g in lvl.own_gens]

    def _tables_below(self, i):
        """(table of s, code of s^-1) for s in strong_generators_below(i)."""
        return [t for lvl in self.levels[i:] for t in lvl.own_tables]


class PermGroup:
    """Group generated by permutations of a common degree."""

    __slots__ = ("degree", "generators", "_chain", "_classes")

    def __init__(self, degree, generators=()):
        if degree < 1:
            raise PgaError(f"degree must be at least 1, got {degree}")
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise PgaError(f"generator of degree {g.degree} in a group of degree {degree}")
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
        """The group of the given generators, taking as its chain a
        complete chain of the group they generate (not copied)."""
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
            raise PgaError(f"degree {g.degree} element tested against degree {self.degree} group")
        return self.chain().contains(g)

    def orbit(self, point: int) -> frozenset:
        if not 0 <= point < self.degree:
            raise PgaError(f"point {point} out of range")
        return frozenset(_orbit((point,), self.generators))

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point: the levels below the first of the group's
        chain on a base starting there (_chain_on, which builds nothing when
        the cached chain's base does), shared, as a group's chain never grows."""
        if not 0 <= point < self.degree:
            raise PgaError(f"point {point} out of range")
        chain = self._chain_on((point,))
        stab = StabilizerChain(self.degree, ())
        stab.levels = chain.levels[1:]
        return PermGroup._from_chain(stab, chain.strong_generators_below(1))

    def elements(self, cap: int = DEFAULT_CAPS.enumeration_cap):
        """Iterate all elements; refuses to start if the order exceeds the cap."""
        return map(_decode, self._element_codes(cap))

    def _element_codes(self, cap):
        """The codes of elements(), in its order: the products u_last ...
        u_0, orbit points ascending at each level, the deepest level
        varying slowest.  Refuses to start if the order exceeds the cap."""
        n = self.order()
        if n > cap:
            raise CapExceededError(f"group order {n} exceeds enumeration cap {cap}")
        chain = self.chain()
        encode, tail, product = chain._codec
        ident = encode(range(self.degree))
        tables = [[lvl.codes[b][0] + tail for b in sorted(lvl.codes)] for lvl in chain.levels]
        tables = tables or [[ident + tail]]  # the trivial group has no level
        return _products(tables, len(tables) - 1, ident, product)

    def _random_elements(self, rng):
        """The codes of seeded uniform elements without end, each the
        product u_last ... u_0 of one transversal element per level, drawn
        deepest first by rng.choice over the level's orbit points in
        transversal order.  The caller decodes what it keeps (_decode)."""
        chain = self.chain()
        encode, tail, product = chain._codec
        ident = encode(range(self.degree))
        levels = [[code + tail for code, _ in lvl.codes.values()] for lvl in reversed(chain.levels)]
        while True:
            g = ident
            for tables in levels:
                g = product(g, rng.choice(tables))
            yield g

    def _chain_on(self, base):
        """A complete chain of the group whose base begins with base: the
        cached chain if its base does, else one on base (not cached) that
        sifts the codes of seeded uniform elements, installs each residue
        other than the identity where it got stuck and walks on the orbits
        of that level and those above; no Schreier generator is sifted.
        It stops once its orbit sizes multiply to |G|, which is exact: the
        product is at most the order of the group H <= G the residues
        generate, so then H = G with every level complete."""
        chain = self.chain()
        if chain.base[: len(base)] == list(base):
            return chain
        new = StabilizerChain(self.degree, (), base)
        sample = self._random_elements(random.Random(_REBASE_SEED))
        ident = chain._codec[0](range(self.degree))
        order = chain.order()
        while new.order() < order:
            h = new._sift(next(sample))
            if h != ident:
                i = new._insert(_decode(h))
                fresh = new.levels[i].own_tables[-1:]
                table = fresh[0][0]
                tables = new._tables_below(i + 1)
                for lvl in reversed(new.levels[: i + 1]):
                    tables = lvl.own_tables + tables  # _tables_below of lvl
                    # an orbit the residue maps into itself gains no point
                    if not all(map(lvl.codes.__contains__, map(table.__getitem__, lvl.codes))):
                        new._walk(lvl, tables, fresh)
        return new

    def conjugacy_classes(self, cap: int = DEFAULT_CAPS.enumeration_cap) -> list:
        """(representative, class size) pairs, one per conjugacy class.

        One walk of the elements: each element not yet seen starts a
        conjugation search over the generators, so the classes come in
        the order the walk first meets them and each representative is
        the first element of its class in that walk.  The search runs one
        breadth-first layer at a time, conjugating the whole layer by each
        generator in turn, and a class's size is how much the set of
        elements met grew; every element is still conjugated by every
        generator, on codes, so the classes are those of an element-wise
        search.  The walk stops once the class sizes found sum to the
        order, as every later element lies in a class already found.  The
        table is cached; like elements(), it refuses a group whose order
        exceeds the cap.
        """
        if self._classes is not None and self.order() <= cap:
            return self._classes
        walk = self._element_codes(cap)  # refuses an order above the cap
        # x^g = g^-1 x g sends point g(i) to g(x(i)), so its code is the
        # product g^-1 * x * g, formed from the code of g^-1, the table of
        # x and the table of g
        encode, tail, product = _codec(self.degree)
        gens = [(encode(g.images) + tail, encode(g.inverse().images)) for g in self.generators]
        seen = set()
        add = seen.add
        classes = []
        left = self.order()
        for rep in walk:
            if rep in seen:
                continue
            start = len(seen)
            add(rep)
            layer = [rep]
            while layer:
                tables = [x + tail for x in layer]
                layer = []
                append = layer.append
                for g, g_inv in gens:
                    for x in tables:
                        c = product(product(g_inv, x), g)
                        if c not in seen:
                            add(c)
                            append(c)
            size = len(seen) - start
            classes.append((_decode(rep), size))
            left -= size
            if not left:
                break  # every later element is in a class already found
        self._classes = classes
        return classes
