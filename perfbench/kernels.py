"""Kernel timings on a workload's own groups: Permutation product and
inverse, the stabilizer-chain sift behind membership, and the element
walk behind the scan and the lattice."""

from __future__ import annotations

import random
import sys
from statistics import median
from time import perf_counter_ns

ROUNDS = 5
MIN_OPS = 20_000


def _repeats(n_items: int) -> int:
    return max(1, -(-MIN_OPS // max(1, n_items)))


def perm_kernels(entries) -> dict:
    """ns per product and per inverse on every ordered pair of each
    group's generators, plus the bytes a product moves, as computed: n
    pointer loads for the image lookups and the new n-tuple."""
    pairs = [(a, b) for e in entries for a in e.group.generators for b in e.group.generators]
    gens = [g for e in entries for g in e.group.generators]
    mul, inv = [], []
    reps = _repeats(len(pairs))
    for _ in range(ROUNDS):
        t0 = perf_counter_ns()
        for _ in range(reps):
            for a, b in pairs:
                a * b
        mul.append((perf_counter_ns() - t0) / (reps * len(pairs)))
    reps = _repeats(len(gens))
    for _ in range(ROUNDS):
        t0 = perf_counter_ns()
        for _ in range(reps):
            for g in gens:
                g.inverse()
        inv.append((perf_counter_ns() - t0) / (reps * len(gens)))
    moved = sum(8 * a.degree + sys.getsizeof((a * b).images) for a, b in pairs) / len(pairs)
    return {"perm.mul_ns": median(mul), "perm.inverse_ns": median(inv), "perm.mul_bytes_computed": moved}


def sift_kernel(entries, seed: int, per_group: int = 64) -> tuple:
    """us per membership test of group elements (a full sift through the
    chain), on chains built beforehand; also the chain sizes.  Returns
    (metrics, 1 if a product of generators failed the test else 0)."""
    rng = random.Random(seed)
    work = []
    base_len = strong_gens = 0
    for e in entries:
        G = e.group
        G.order()
        chain = G.chain()
        base_len += len(chain.base)
        strong_gens += len(chain.strong_generators_below(0))
        gens = G.generators
        for _ in range(per_group):
            x = rng.choice(gens)
            for _ in range(7):
                x = x * rng.choice(gens)
            work.append((G, x))
    times, members = [], True
    for _ in range(ROUNDS):
        t0 = perf_counter_ns()
        for G, x in work:
            members &= G.contains(x)
        times.append((perf_counter_ns() - t0) / len(work) / 1000)
    if not members:
        print("[perfbench] a product of generators failed the membership test", file=sys.stderr)
    metrics = {"group.sift_us": median(times), "group.base_len": base_len, "group.strong_gens": strong_gens}
    return metrics, int(not members)


def enumerate_kernel(entries, cap: int) -> tuple:
    """Seconds to walk every element of each group whose order is within
    the enumeration cap, on chains built beforehand.  Returns (metrics,
    1 if the walk's count differs from the group orders else 0)."""
    groups = [e.group for e in entries if e.group.order() <= cap]
    times, count = [], 0
    for _ in range(3):
        count = 0
        t0 = perf_counter_ns()
        for G in groups:
            for _ in G.elements(cap):
                count += 1
        times.append((perf_counter_ns() - t0) / 1e9)
    bad = count != sum(G.order() for G in groups)
    if bad:
        print("[perfbench] element walk count differs from the group orders", file=sys.stderr)
    return {"group.enumerate_s": median(times), "group.elements": count}, int(bad)
