"""Permutations of the point set {0, ..., n-1}.

Values are immutable image tuples: a permutation of degree n stores
images[i] = image of point i.  Composition is left-to-right everywhere,
(a * b) sends x to b(a(x)), so x^(a*b) = (x^a)^b and powers read in
application order.  Degree is part of the value: the same cycles on 4
and on 5 points are different permutations, because fixed-point counts
depend on the size of the point set.

A permutation computes its cycle type once, on first use, in one pass
over its images, and keeps it; order and fixed-point count read it.
Products, inverses and parsed input start without it, so making a
permutation costs no more than its image tuple.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from .errors import PgaError

_new = object.__new__


def _ascii_int(text: str):
    """The value of a run of ASCII digits, else None (str.isdigit takes
    "²", and int() takes "٣", "1_0" and "+1")."""
    return int(text) if text.isascii() and text.isdigit() else None


def _cycle_type(images) -> tuple:
    """The sorted cycle lengths of images, in one pass that counts each
    cycle's length and builds no cycle.  A cycle is walked from its least
    point, whose later points are marked, so no point starts a second walk."""
    seen, lengths = [False] * len(images), []
    for i, j in enumerate(images):
        if not seen[i]:
            length = 1
            while j != i:
                seen[j] = True
                j = images[j]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


class Permutation:
    """A bijection of {0, ..., degree-1}."""

    __slots__ = ("images", "_type")  # _type: the cycle type, unset until read

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise PgaError("degree must be at least 1")
        if sorted(images) != list(range(len(images))):
            raise PgaError(f"images {images!r} are not a bijection of 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Wrap an image tuple already known to be a bijection, unchecked.

        For products and inverses of valid permutations, whose images
        are bijections by construction; input from outside goes through
        the checking constructor.
        """
        p = _new(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise PgaError(f"degree must be at least 1, got {n}")
        return cls._trusted(tuple(range(n)))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation like "(0 1 2)(4 5)"; "()" is the identity."""
        if degree < 1:
            raise PgaError(f"degree must be at least 1, got {degree}")
        s = text.strip()
        if not s:
            raise PgaError("empty cycle expression")
        bodies = []
        pos = 0
        while pos < len(s):
            if s[pos].isspace():
                pos += 1
                continue
            if s[pos] != "(":
                raise PgaError(f"expected '(' at position {pos}, got {s[pos]!r}")
            end = s.find(")", pos)
            if end < 0:
                raise PgaError("unclosed cycle")
            bodies.append(s[pos + 1 : end])
            pos = end + 1
        if len(bodies) == 1 and not bodies[0].split():
            return cls.identity(degree)
        images = list(range(degree))
        seen = set()
        for body in bodies:
            parts = body.split()
            if len(parts) < 2:
                raise PgaError(f"cycle ({body.strip()}) needs at least two points")
            points = []
            for part in parts:
                p = _ascii_int(part)
                if p is None:
                    raise PgaError(f"bad point {part!r}")
                if p >= degree:
                    raise PgaError(f"point {p} out of range for degree {degree}")
                if p in seen:
                    raise PgaError(f"point {p} occurs twice")
                seen.add(p)
                points.append(p)
            for i, p in enumerate(points):
                images[p] = points[(i + 1) % len(points)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, img = self.images, other.images
        if len(a) != len(img):
            raise PgaError(f"cannot compose degree {len(a)} with degree {len(img)}")
        if len(a) == 1:
            # itemgetter of a single index returns the item, not a tuple
            return other
        return Permutation._trusted(itemgetter(*a)(img))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def order(self) -> int:
        """Least k >= 1 with self**k equal to the identity."""
        return lcm(*self.cycle_type())

    def fixed_points(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.images) if i == v)

    def fixed_point_count(self) -> int:
        return self.cycle_type().count(1)

    def cycles(self) -> list:
        """Nontrivial cycles, each rotated least-point-first, sorted by least point."""
        seen, out = [False] * self.degree, []
        for i, j in enumerate(self.images):
            if j == i or seen[i]:
                continue
            cyc = [i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple:
        """Multiset of cycle lengths, fixed points included, sorted
        ascending; computed on first use and kept."""
        if not hasattr(self, "_type"):
            self._type = _cycle_type(self.images)
        return self._type

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}]{self.cycle_string()}"
