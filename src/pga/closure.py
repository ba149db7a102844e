"""Orbits on ordered pairs, partition refinement, and 2-closure.

The 2-closure of a group G on points 0..n-1 is the largest subgroup of
the full symmetric group with the same orbits on ordered pairs.  It is
recovered here as the automorphism group of the complete digraph whose
arc (x, y) carries the index of the pair orbit containing it.

The pair orbits are read off chains of G: for u_a the transversal
element taking a first level's base point r to a, (a, b) lies in the
orbit of (r, u_a^-1(b)), whose color is that of u_a^-1(b)'s G_r-orbit,
so row a is one map of u_a^-1's code.  G's cached chain gives the rows
of one orbit of G, G's orbits the row of a point m G fixes, and a chain
on the least point m of each other orbit (PermGroup._chain_on) the
rest.  Each orbit, by least point, numbers its G_r-orbits in the order
row m meets them; every row of the orbit meets all of them, so colors
come in row-major first-encounter order.

The searcher is a purpose-built individualization-refinement backtracker
over images of a fixed base.  At each level of the principal branch the
next base point is the least member of the first non-singleton cell; the
branch mapping it to itself is explored in full (that is the stabilizer
of the base prefix), while each later branch stops at the first
automorphism found, and candidate images already reachable from a
processed image under the automorphisms found so far are skipped.  That
is the classic descent that yields generators level by level, and it
keeps 2-transitive inputs (where refinement never splits anything) from
degenerating into a factorial enumeration.

The principal branch is refined first, fixing the base, and the levels
are searched from the deepest up.  An image y that G, on a chain on the
search base, reaches at a level needs no descent: G lies in the closure,
so u_y lies in the coset of automorphisms taking the level's point to y.
The descent returns that coset's element with the least images of the
later base points, in order, as it tries images in cell order, cells
list their points ascending and an automorphism maps each domain cell
onto its image cell.  The closure chain's deeper levels, complete by
then, give that element level by level, so the generators stay those of
the plain descent.

Refinement splits each cell by the signature of its points: for each
new cell of the round, how many arcs of each color leave the point into
the cell (the counts of arcs entering the point follow from these).  A
first round counts into every cell, and the first round after a point
is individualized into that singleton alone, where a point's signature
is one weight.  The principal branch starts from the single cell of all
points.  When the group of color automorphisms the search is given (G
itself, for the 2-closure) is transitive, every row holds each color
equally often, so a first round could not split that cell, and it is
skipped.  Each later round counts
into the fragments the previous round split off, all but the last of
each split cell: two points of a cell already had equal counts into
every older cell, and their count into a last fragment is their count
into its parent less those into its other fragments.  So the first
cell where two points' full counts differ is a new one, and the cells
split into the same fragments, in the same order, as by counting into
every cell; an image cell whose counts matched its domain cell's in
the previous round matches them in full exactly when it matches them
on the new cells.  The counts are coded as integers no wider than
about n * log2(n + 1) bits, whatever the rank (see _arc_weights and
_signature); they sort as the tuples of counts do, so the fragments
and their order are those of explicit counting.

The domain side of every refinement in a search is a partition of the
principal branch: a branch individualizes the first point of the first
non-singleton domain cell, as the principal branch does, and only the
images differ.  So the principal branch records, per level, the rounds
of the refinement after its point is fixed: each round's new cells, and
each cell's domain fragments with their signatures.  Every other branch
holds only its image cells and splits them by replaying its level's
rounds; each domain fragment's signature must be met by as many image
points of its cell.  The principal branch itself, where every image
cell is its domain cell, refines its cells alone, each once per round.

The points fixed along the principal branch form a base for the
closure, and the generators found are a strong generating set for it
(see _descent), so each level of the closure's chain is walked with
them once found, and nothing is sifted.

is_2_closed builds no closure.  The cell of each principal-branch
level's point x holds x's orbit under the closure's stabilizer of the
points above it, so |G| <= |G^(2)| <= B, the product of those cells'
sizes, and B = |G| proves G 2-closed.  Otherwise the plain descent
runs and each automorphism it finds is sifted through G's chain: the
first that G lacks witnesses that G is not 2-closed; if G holds them
all, G holds the group they generate, which is G^(2) (see _descent).
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import prod

from .config import DEFAULT_CAPS
from .errors import CapExceededError
from .group import PermGroup, StabilizerChain, _decode, _orbit
from .perm import Permutation


class OrbitalPartition:
    """Coloring of ordered pairs by orbit index.

    Color ids are dense and assigned in first-encountered order scanning
    pairs row-major, so equal pair partitions get byte-equal matrices.
    """

    __slots__ = ("color", "rank")

    def __init__(self, color: tuple, rank: int):
        self.color = color  # n x n matrix, color[x][y] is the orbit id of (x, y)
        self.rank = rank


def orbitals(G: PermGroup) -> OrbitalPartition:
    """Orbits of G on ordered pairs, as a color matrix."""
    n = G.degree
    color = [None] * n
    rank = 0
    number, orbits = None, 0  # each point's G-orbit, numbered by least point
    for m in range(n):
        if color[m] is not None:
            continue
        if all(g.images[m] == m for g in G.generators):
            # G_m = G, so (m, b) has the color of b's G-orbit
            if number is None:
                number = [None] * n
                for p in range(n):
                    if number[p] is None:
                        for q in _orbit((p,), G.generators):
                            number[q] = orbits
                        orbits += 1
            color[m] = tuple(rank + k for k in number)
            rank += orbits
            continue
        chain = G.chain()
        if not (chain.levels and m in chain.levels[0].codes):
            chain = G._chain_on((m,))
        codes = chain.levels[0].codes
        table = [None] * n  # the color of each G_r-orbit's points
        for c in codes[m][1][:n]:  # u_m^-1(b) for b = 0, 1, ...
            if table[c] is None:
                for q in _orbit((c,), chain.strong_generators_below(1)):
                    table[q] = rank
                rank += 1
        for a, (_, inverse) in codes.items():
            color[a] = tuple(map(table.__getitem__, inverse[:n]))
    return OrbitalPartition(color=tuple(color), rank=rank)


def _arc_weights(color, rank):
    """Weight rows w[x][z] that code the color of the arc (x, z).

    color must number pair orbits as orbitals() does.  The orbitals out
    of one orbit of G then carry consecutive colors [s, s + k), met first
    in the row of the orbit's least point, and every row of the orbit
    holds all k of them.  With B = n + 1, color c of that block weighs
    B**(s + k - 1 - c): a cell holds at most n < B points, so the sum of
    w[x] over a cell is an integer whose base-B digits are x's counts of
    each block color into the cell, and integers order as those counts
    do.  Each weight also carries h * B**m, for m the largest block size
    and h the number of blocks after c's: of two points of different
    orbits, the one whose block comes first has the greater counts in
    every cell, and the h term gives it the greater sum too.

    Counting arcs into x adds nothing: color[z][x] is the paired orbital
    of color[x][z], so those counts are a fixed rearrangement of these.
    The weights come from one table of rank entries, shared by all rows,
    each block's powers of B from one running product.
    """
    B = len(color) + 1
    blocks = sorted({(min(row), max(row)) for row in color})
    top = B ** max((hi - lo + 1 for lo, hi in blocks), default=0)
    table = [0] * rank
    for h, (lo, hi) in enumerate(reversed(blocks)):
        rank_term, power = h * top, 1
        for c in range(hi, lo - 1, -1):  # power is B**(hi - c)
            table[c] = rank_term + power
            power *= B
    return [[table[c] for c in row] for row in color]


def _layout(cells):
    """The points of the cells in order, and a mask marking each cell's last."""
    flat = [z for cell in cells for z in cell]
    ends = [i == len(cell) - 1 for cell in cells for i in range(len(cell))]
    return flat, ends


def _signature(weights, x, layout):
    """Arc color counts out of x, per cell, coded as integers.

    The running sums of x's weights at the cell ends; they compare as
    the per-cell sums do, since the first cell where two points differ
    is the first end where their running sums differ, by the same amount.
    Into a single point z, as after a point is individualized, it is the
    bare weight of (x, z): every signature of a round has the same layout
    shape, the image side's included, so bare weights sort and match as
    the 1-tuples holding them would.
    """
    flat, ends = layout
    if len(flat) == 1:
        return weights[x][flat[0]]
    # via a list, the tuple is made at its final size; tuple() of the
    # iterator would resize as it goes and fill the tuple free lists
    return tuple(list(compress(accumulate(map(weights[x].__getitem__, flat)), ends)))


def _split(weights, cell, layout):
    """The points of a cell grouped by their signatures."""
    by_sig = {}
    for x in cell:
        by_sig.setdefault(_signature(weights, x, layout), []).append(x)
    return by_sig


def _refine(weights, cells, new):
    """Refine cells to a stable partition.

    The first round counts arcs into the cells at the indices new, each
    later round into the fragments the round before split off: every
    fragment of a split cell but its last (see the module docstring).
    Unless new lists every cell, the cells must have been stable before
    those cells split off, as _individualize's output is with new = (t,).

    Returns the stable cells and the rounds made, each as its new and,
    per cell, None for a singleton or its fragments in signature order,
    each with its signature; _match replays them on image cells.
    """
    rounds = []
    while new:
        layout = _layout([cells[i] for i in new])
        keyed, refined, added = [], [], []
        for cell in cells:
            if len(cell) == 1:
                keyed.append(None)
                refined.append(cell)
                continue
            frags = sorted((k, tuple(f)) for k, f in _split(weights, cell, layout).items())
            keyed.append(frags)
            added += range(len(refined), len(refined) + len(frags) - 1)
            refined += [f for _, f in frags]
        rounds.append((new, keyed))
        cells, new = refined, added
    return cells, rounds


def _match(weights, images, rounds):
    """Split image cells, matched to the domain cells that _refine made
    rounds from, as those rounds split the domain cells.

    Returns the image cells matched to the stable domain cells, or None
    at the first image cell whose points do not take each domain
    fragment's signature as often as the fragment has points, which
    proves no automorphism respects the matching.  When they do, those
    points fill the image cell, so no other signature needs checking.
    """
    for new, keyed in rounds:
        layout = _layout([images[i] for i in new])
        split = []
        for cell, frags in zip(images, keyed):
            if frags is None:
                split.append(cell)
                continue
            by_sig = _split(weights, cell, layout)
            for key, f in frags:
                fq = by_sig.get(key, ())
                if len(fq) != len(f):
                    return None
                split.append(tuple(fq))
        images = split
    return images


def _individualize(cells, t, x):
    """cells with x, a point of the cell at t, split off before the rest."""
    return [*cells[:t], (x,), tuple(z for z in cells[t] if z != x), *cells[t + 1 :]]


def _first_non_singleton(cells):
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            return idx
    return None


def _preserves_colors(color, img):
    return all(tuple(map(color[ia].__getitem__, img)) == row for row, ia in zip(color, img))


def _find_one(weights, color, branch, d, images):
    """First automorphism mapping the principal branch's cells at depth
    d onto the matched image cells, or None; images is None when the
    matching already failed."""
    if images is None:
        return None
    cells, t, rounds = branch[d]
    if t is None:
        img = [0] * len(color)
        for (x,), (y,) in zip(cells, images):
            img[x] = y
        return Permutation(img) if _preserves_colors(color, img) else None
    for y in images[t]:
        found = _find_one(weights, color, branch, d + 1, _match(weights, _individualize(images, t, y), rounds))
        if found is not None:
            return found
    return None


def _principal_branch(color, rank, transitive):
    """Arc weights, and per principal-branch level its stable cells, the
    index t of the cell of the point x it fixes (the cell's first) and
    the rounds that refining after fixing x made; a last level holds the
    discrete cells, with t and the rounds None.

    Every other branch of the search individualizes the same points of
    the same cells and only their images differ, so it holds only its
    image cells, and _match splits them by replaying the level's rounds.

    transitive says that a transitive group preserves the colors; then
    every row holds each color equally often, the first round cannot
    split the unit cell, and it is skipped.  A uniform diagonal would not
    do: the colors of a graph that is not regular have one too.
    """
    weights = _arc_weights(color, rank)
    cells = [tuple(range(len(color)))]
    if not transitive:
        cells = _refine(weights, cells, (0,))[0]
    branch = []
    while (t := _first_non_singleton(cells)) is not None:
        refined, rounds = _refine(weights, _individualize(cells, t, cells[t][0]), (t,))
        branch.append((cells, t, rounds))
        cells = refined
    branch.append((cells, None, None))
    return weights, branch


def _descent(color, weights, branch, settled=lambda i, y: None):
    """Yields (i, g) for each automorphism g found, deepest level i first,
    and (i, None) once level i is done; settled(i, y) may give one taking
    level i's point x to y without a search.  The search's state goes to
    each step as arguments, so it is freed when it ends.

    The automorphisms are a strong generating set, on the search base,
    of the full group of color-preserving permutations.  Let K be the
    automorphisms fixing the base points above a level, and H the group
    of those found at or below it, all in K.  By induction from the
    deepest level, where the partition is discrete and K trivial, those
    below generate K_x, so K_x <= H.  When the level is done, x's cell,
    which holds x^K, lies in reached, and a point of reached is in x^H or
    in no K-image of x; so x^H = x^K and |H| = |x^H| |H_x| >= |K|, that
    is H = K, whichever element of K maps x to each image found, the
    settled ones among them.
    """
    gens = []
    for i in reversed(range(len(branch) - 1)):
        cells, t, rounds = branch[i]
        # images of x tried so far and all they reach under gens; the set
        # stays closed under gens, so a new generator only extends it
        reached = _orbit({cells[t][0]}, gens)
        for y in cells[t]:
            if y in reached:
                continue
            found = settled(i, y)
            if found is None:
                found = _find_one(weights, color, branch, i + 1, _match(weights, _individualize(cells, t, y), rounds))
            if found is not None:
                yield i, found
                gens.append(found)  # maps x to y, so y is reached now
                reached = _orbit(reached, gens)
            else:
                reached |= _orbit({y}, gens)
        yield i, None


def _color_automorphism_generators(color, rank, G):
    """Generators of the full group of color-preserving permutations, and
    its chain on the search base (see _descent).  G is a group of color
    automorphisms on as many points; an image G reaches is settled by
    the least element of its coset, read off the chain's deeper levels.
    """
    weights, branch = _principal_branch(color, rank, G.is_transitive())
    chain = StabilizerChain(G.degree, (), [cells[t][0] for cells, t, _ in branch[:-1]])
    _, tail, product = chain._codec
    known = G._chain_on(chain.base).levels

    def settled(i, y):
        if y not in known[i].codes:
            return None
        u = known[i].codes[y][0]  # then the least element of its coset
        for lvl in chain.levels[i + 1 :]:
            u = product(lvl.codes[min(lvl.codes, key=u.__getitem__)][0], u + tail)
        return _decode(u)

    gens = []
    for i, found in _descent(color, weights, branch, settled):
        if found is None:
            chain._walk_level(i)
        else:
            chain._insert(found)
            gens.append(found)
    return gens, chain


def _pair_orbits(G, degree_cap):
    if G.degree > degree_cap:
        raise CapExceededError(f"degree {G.degree} exceeds closure degree cap {degree_cap}")
    return orbitals(G)


def two_closure(G: PermGroup, degree_cap: int = DEFAULT_CAPS.closure_degree_cap) -> PermGroup:
    """The full group of permutations preserving every pair orbit of G."""
    part = _pair_orbits(G, degree_cap)
    gens, chain = _color_automorphism_generators(part.color, part.rank, G)
    return PermGroup._from_chain(chain, gens)


def _outside_automorphism(G: PermGroup, degree_cap: int = DEFAULT_CAPS.closure_degree_cap):
    """A permutation preserving every pair orbit of G that G lacks, or
    None when G is 2-closed (see the module docstring)."""
    part = _pair_orbits(G, degree_cap)
    weights, branch = _principal_branch(part.color, part.rank, G.is_transitive())
    if prod(len(cells[t]) for cells, t, _ in branch[:-1]) == G.order():
        return None
    found = (g for _, g in _descent(part.color, weights, branch) if g is not None)
    return next((g for g in found if not G.contains(g)), None)


def is_2_closed(G: PermGroup, degree_cap: int = DEFAULT_CAPS.closure_degree_cap) -> bool:
    return _outside_automorphism(G, degree_cap) is None
