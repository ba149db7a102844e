"""The analysis leaves no cyclic garbage: its working state is freed by
reference counting as soon as a call returns.

A recursive function nested in another refers to itself through its
closure cell, so the cell, the function and everything it closes over
(a search's branch, a walk's transversal lists) form a cycle that only
the cyclic collector frees, whenever it next runs.  Each test runs one
computation on a fresh group with the collector disabled and then asks
it to collect: it must find nothing.
"""

import gc

import pytest

from pga.closure import two_closure
from pga.corpus import CorpusEntry
from pga.group import PermGroup
from pga.harness import analyze
from pga.perm import Permutation

NAMES = ("m11_12", "symmetric_6", "alternating_7", "dihedral_8")


def cyclic_garbage_after(compute) -> int:
    gc.collect()
    gc.disable()
    try:
        compute()
        return gc.collect()
    finally:
        gc.enable()


def fresh(G, degree=None):
    """G anew, with no chain or class table cached; with degree, padded
    with fixed points to that many points."""
    n = degree or G.degree
    return PermGroup(n, [Permutation(g.images + tuple(range(G.degree, n))) for g in G.generators])


@pytest.mark.parametrize("name", NAMES)
class TestNoCyclicGarbage:
    def test_two_closure(self, corpus_by_name, name):
        G = fresh(corpus_by_name[name].group)
        assert cyclic_garbage_after(lambda: two_closure(G)) == 0

    def test_conjugacy_classes(self, corpus_by_name, name):
        for degree in (None, 300):  # byte strings, then image tuples
            G = fresh(corpus_by_name[name].group, degree)
            assert cyclic_garbage_after(G.conjugacy_classes) == 0

    def test_analyze(self, corpus_by_name, name):
        entry = corpus_by_name[name]
        entry = CorpusEntry(entry.name, entry.source, fresh(entry.group), entry.declared_degree)
        # reading skip_reasons computes every field of the record
        assert cyclic_garbage_after(lambda: analyze(entry).skip_reasons) == 0
