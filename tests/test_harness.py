from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pga.config import Caps
from pga.corpus import CorpusEntry, builtin_family
from pga.errors import CapExceededError, PgaError
from pga.fixity import FixityResult
from pga.group import PermGroup
from pga.harness import (
    CHECK_IDS,
    SKIPPED,
    VACUOUS,
    VERIFIED,
    VIOLATED,
    GroupAnalysis,
    analyze,
    check,
    run_all,
    summarize,
)
from pga.perm import Permutation
from pga.structure import NormalSubgroupInfo, factorize
from test_surface import perfbench_layer_calls


# ---------------------------------------------------------------------------
# synthetic analysis records


def make_info(order, invariants=None, is_semiregular=False):
    """A subgroup of the given order; abelian exactly when invariants are given."""
    return NormalSubgroupInfo(
        subgroup=PermGroup(1),
        order=factorize(order),
        abelian_invariants=tuple(invariants) if invariants else None,
        is_semiregular=is_semiregular,
    )


def _given(value):
    return value


def _capped():
    raise CapExceededError("synthetic cap")


def make_analysis(
    degree=6,
    order=12,
    fixity_value=2,
    elusive=False,
    two_closed=True,
    solvable=True,
    lattice=(),
    derangement="auto",
    prime_derangement=None,
    prime_profile=None,
    missing=(),
):
    """A record built as analyze builds one: a given field is computed by
    _given, and a missing one by a function that a cap stops."""
    if derangement == "auto":
        derangement = Permutation(list(range(1, degree)) + [0])
    values = {
        "solvable": solvable,
        "fixity": FixityResult(fixity_value, None),
        "elusive": elusive,
        "two_closed": two_closed,
        "prime_profile": prime_profile or {p: frozenset({0}) for p in factorize(order).primes},
        "normal_lattice": list(lattice),
        "derangement": derangement,
        "prime_derangement": prime_derangement,
    }
    pending = {name: (_capped,) if name in missing else (_given, value) for name, value in values.items()}
    return GroupAnalysis("synthetic", degree, order, pending)


# ---------------------------------------------------------------------------
# independently coded hypothesis and conclusion evaluators


def _nontrivial(lattice):
    return [i for i in lattice if i.order.value > 1]


def _psubs(lattice):
    return [i for i in _nontrivial(lattice) if i.is_p_group_for is not None]


def _abelians(lattice):
    return [i for i in _nontrivial(lattice) if i.is_abelian]


def hyp_L2_1a(a):
    if a.fixity is None:
        return None
    return a.fixity.fixity >= 2 and any(p > a.fixity.fixity for p in a.stab_order_factored.primes)


def hyp_L2_1b(a):
    if a.fixity is None:
        return None
    if a.fixity.fixity < 2:
        return False
    if a.normal_lattice is None:
        return None
    return any(i.is_p_group_for > a.fixity.fixity for i in _psubs(a.normal_lattice))


def hyp_elusive_then_lattice(a, want):
    if a.elusive is None:
        return None
    if not a.elusive:
        return False
    if a.normal_lattice is None:
        return None
    if not want(a.normal_lattice):
        return False
    if a.fixity is None:
        return None
    return True


def hyp_C2_2(a):
    return hyp_elusive_then_lattice(a, lambda lat: bool(_psubs(lat)))


def hyp_C2_3(a):
    if a.elusive is None:
        return None
    if not a.elusive:
        return False
    return None if a.fixity is None else True


def hyp_L2_4(a):
    if a.elusive is None:
        return None
    if not a.elusive:
        return False
    if len(a.degree_factored.factors) < 2:
        return False
    if a.fixity is None:
        return None
    return a.fixity.fixity >= 3


def hyp_L2_4ii(a):
    base = hyp_L2_4(a)
    if base is not True:
        return base
    return None if a.prime_profile is None else True


def hyp_C2_5(a):
    if a.elusive is None:
        return None
    if not a.elusive or a.degree % 2 == 0:
        return False
    return None if a.fixity is None else True


def hyp_L2_6(a):
    return hyp_elusive_then_lattice(a, lambda lat: bool(_nontrivial(lat)))


def hyp_L2_7(a):
    return hyp_elusive_then_lattice(a, lambda lat: bool(_abelians(lat)))


def hyp_C2_8(a):
    if a.elusive is None:
        return None
    if not a.elusive:
        return False
    if a.two_closed is None:
        return None
    if not a.two_closed:
        return False
    if a.solvable is None:
        return None
    if not a.solvable:
        return False
    return None if a.fixity is None else True


def hyp_C2_9(a):
    return hyp_elusive_then_lattice(a, lambda lat: bool(_abelians(lat)))


def hyp_C2_10(a):
    if a.two_closed is None:
        return None
    if not a.two_closed:
        return False
    if a.fixity is None:
        return None
    if a.fixity.fixity != 4:
        return False
    if a.normal_lattice is None:
        return None
    if not _psubs(a.normal_lattice):
        return False
    if "derangement" in a.skip_reasons or "prime_derangement" in a.skip_reasons:
        return None
    return True


def hyp_elusive_only(a):
    if a.elusive is None:
        return None
    return bool(a.elusive)


def hyp_A3(a):
    base = hyp_elusive_only(a)
    if base is not True:
        return base
    return None if a.normal_lattice is None else True


INDEPENDENT_HYPS = {
    "L2_1a": hyp_L2_1a,
    "L2_1b": hyp_L2_1b,
    "C2_2": hyp_C2_2,
    "C2_3": hyp_C2_3,
    "L2_4i": hyp_L2_4,
    "L2_4ii": hyp_L2_4ii,
    "C2_5": hyp_C2_5,
    "L2_6": hyp_L2_6,
    "L2_7": hyp_L2_7,
    "C2_8": hyp_C2_8,
    "C2_9": hyp_C2_9,
    "C2_10": hyp_C2_10,
    "A1": hyp_elusive_only,
    "A2": hyp_elusive_only,
    "A3": hyp_A3,
    "A4": hyp_A3,
}


def concl_L2_1a(a):
    f = a.fixity.fixity
    return all(
        a.stab_order_factored.valuation(p) == a.order_factored.valuation(p)
        for p in a.stab_order_factored.primes
        if p > f
    )


def concl_L2_1b(a):
    f = a.fixity.fixity
    return all(
        i.is_p_group_for not in a.stab_order_factored.primes
        for i in _psubs(a.normal_lattice)
        if i.is_p_group_for > f
    )


def concl_C2_2(a):
    return all(i.is_p_group_for <= a.fixity.fixity for i in _psubs(a.normal_lattice))


def concl_C2_3(a):
    return a.fixity.fixity >= 3


def concl_L2_4i(a):
    return all(p <= a.fixity.fixity for p in a.degree_factored.primes)


def concl_L2_4ii(a):
    f = a.fixity.fixity
    for p in a.degree_factored.primes:
        allowed = {0} | {m * p for m in range(1, f // p + 1)}
        if not set(a.prime_profile.get(p, ())) <= allowed:
            return False
    return True


def concl_C2_5(a):
    return a.fixity.fixity >= 5


def concl_L2_6(a):
    f = a.fixity.fixity
    bound = min(
        Fraction(i.order.value - 1, i.smallest_prime - 1)
        for i in _nontrivial(a.normal_lattice)
    )
    return Fraction(a.degree) <= f * bound


def concl_L2_7(a):
    f = a.fixity.fixity
    for i in _abelians(a.normal_lattice):
        p = i.smallest_prime
        inner = Fraction(f * (p * f - 1), p - 1)
        if i.order.value > p * f or a.degree > inner or inner > f * (2 * f - 1):
            return False
    return True


def concl_C2_8(a):
    return a.fixity.fixity >= 6


def concl_C2_9(a):
    f = a.fixity.fixity
    for i in _abelians(a.normal_lattice):
        factors = dict(i.order.factors)
        p1 = min(factors)
        if max(factors.values()) == 1:
            return False
        if p1 ** (sum(factors.values()) - 1) > f:
            return False
        inv = tuple(i.abelian_invariants or ())
        if f == 3 and inv not in ((2, 2), (3, 3)):
            return False
        if f == 3 and inv != (p1, p1):
            return False
        if f == 4:
            n = i.order.value
            if p1 == 3 and inv != (3, 3):
                return False
            elif p1 == 2:
                allowed = []
                if n == 4:
                    allowed = [(2, 2)]
                else:
                    rest = sorted(q for q in factors if q != 2)
                    if len(rest) == 1:
                        q = rest[0]
                        if factors == {2: 1, q: 2}:
                            allowed = [(q, 2 * q)]
                        elif factors == {2: 2, q: 1}:
                            allowed = [(2, 2 * q)]
                if inv not in allowed:
                    return False
            elif p1 not in (2, 3):
                return False
    return True


def concl_C2_10(a):
    return a.derangement is not None


def concl_A1(a):
    return set(a.order_factored.primes) == set(a.stab_order_factored.primes)


def concl_A2(a):
    prime_power = a.degree > 1 and len({p for p, _ in a.degree_factored.factors}) == 1
    return not prime_power


def concl_A3(a):
    return not any(i.is_cyclic for i in _nontrivial(a.normal_lattice))


def concl_A4(a):
    return not any(i.is_semiregular for i in _nontrivial(a.normal_lattice))


INDEPENDENT_CONCLS = {
    "L2_1a": concl_L2_1a,
    "L2_1b": concl_L2_1b,
    "C2_2": concl_C2_2,
    "C2_3": concl_C2_3,
    "L2_4i": concl_L2_4i,
    "L2_4ii": concl_L2_4ii,
    "C2_5": concl_C2_5,
    "L2_6": concl_L2_6,
    "L2_7": concl_L2_7,
    "C2_8": concl_C2_8,
    "C2_9": concl_C2_9,
    "C2_10": concl_C2_10,
    "A1": concl_A1,
    "A2": concl_A2,
    "A3": concl_A3,
    "A4": concl_A4,
}


# ---------------------------------------------------------------------------
# analyze() on real groups


class TestAnalyze:
    def test_sym4(self, analysis_of):
        a = analysis_of("symmetric_4")
        assert a.fixity.fixity == 2
        assert a.elusive is False
        assert a.solvable is True
        assert a.two_closed is True
        proper = sorted(
            i.order.value for i in a.normal_lattice if 1 < i.order.value < a.order
        )
        assert proper == [4, 12]

    def test_regular_c6(self, analysis_of):
        a = analysis_of("cyclic_6")
        assert a.fixity.fixity == 0
        assert a.elusive is False
        assert sorted(i.order.value for i in a.normal_lattice) == [1, 2, 3, 6]

    def test_m11(self, analysis_of):
        a = analysis_of("m11_12")
        assert a.elusive is True
        assert a.solvable is False
        assert sorted(i.order.value for i in a.normal_lattice) == [1, 7920]
        assert a.two_closed is False
        assert a.order_factored.primes == (2, 3, 5, 11)

    def test_intransitive_rejected(self):
        entry = CorpusEntry(
            "split", "synthetic", PermGroup(4, [Permutation.from_cycles("(0 1)", 4)]), 4
        )
        with pytest.raises(PgaError, match="split: the checks assume a transitive group"):
            analyze(entry)

    def test_degree_one_is_vacuous_for_elusive_checks(self):
        a = analyze(builtin_family("cyclic", [1]))
        assert a.elusive is False
        for cid in ("A1", "A2", "A3", "A4"):
            assert check(cid, a).status == VACUOUS, cid

    @pytest.mark.parametrize(
        "caps",
        [
            Caps(),
            Caps(enumeration_cap=1),
            Caps(closure_degree_cap=1),
            Caps(lattice_cap=1),
            Caps(enumeration_cap=1, closure_degree_cap=1),
        ],
        ids=["defaults", "enumeration", "closure", "lattice", "enumeration_and_closure"],
    )
    def test_skip_reasons_name_exactly_the_missing_fields(self, corpus_entries, caps):
        # the checks' _need reads skip_reasons alone; None is a value of
        # the derangement fields, where it means that none exists
        for entry in [*corpus_entries, builtin_family("cyclic", [1]), builtin_family("symmetric", [1])]:
            a = analyze(entry, caps)
            names = set(a.__slots__)
            assert set(a.skip_reasons) <= names, entry.name
            for name in names - {"derangement", "prime_derangement"}:
                assert (name in a.skip_reasons) == (getattr(a, name) is None), (entry.name, name)
            for name in {"derangement", "prime_derangement"} & set(a.skip_reasons):
                assert getattr(a, name) is None, (entry.name, name)

    def test_caps_turn_into_skip_reasons(self):
        capped = "group order 120 exceeds enumeration cap 50"
        cases = [
            (
                builtin_family("symmetric", [5]),
                Caps(enumeration_cap=50, closure_degree_cap=3),
                {
                    "fixity": capped,
                    "elusive": capped,
                    "prime_profile": capped,
                    "derangement": capped,
                    "prime_derangement": capped,
                    "two_closed": "degree 5 exceeds closure degree cap 3",
                    "normal_lattice": capped,
                },
            ),
            (builtin_family("cyclic", [1]), Caps(), {"fixity": "fixity is undefined for the trivial group"}),
            (builtin_family("symmetric", [4]), Caps(lattice_cap=1), {"normal_lattice": "more than 1 normal subgroups"}),
        ]
        analyses = [analyze(entry, caps) for entry, caps, _ in cases]
        for a, (entry, _, expected) in zip(analyses, cases):
            assert a.skip_reasons == expected, entry.name
            for name in expected:
                assert getattr(a, name) is None, (entry.name, name)
        for cid in ("C2_3", "C2_8", "L2_6"):
            assert check(cid, analyses[0]).status == SKIPPED, cid

    def test_each_layer_function_is_called_once(self, monkeypatch, corpus_by_name):
        # perfbench's traced run times analyze by replacing these names on
        # pga.harness, so analyze must look each one up there per call
        calls = record_layer_calls(monkeypatch)
        a = analyze(corpus_by_name["symmetric_4"])
        for _ in range(2):
            for name in FIELDS:
                getattr(a, name)
        assert sorted(name for name, _ in calls) == sorted(perfbench_layer_calls()["harness"])


# ---------------------------------------------------------------------------
# fields computed on first read

# the fields analyze leaves to their first read, in the order it lists them
FIELDS = tuple(analyze(builtin_family("cyclic", [3]))._pending)

ON_DEMAND_CAPS = [Caps(), Caps(enumeration_cap=50, closure_degree_cap=3), Caps(lattice_cap=1)]


def record_layer_calls(monkeypatch) -> list:
    """Replace each layer function on pga.harness, as perfbench's traced
    run does, by one that records (name, G) for every call to it."""
    import pga.harness

    calls = []

    def recorded(name, fn):
        def call(G, *args):
            calls.append((name, G))
            return fn(G, *args)
        return call

    for name in perfbench_layer_calls()["harness"]:
        monkeypatch.setattr(pga.harness, name, recorded(name, getattr(pga.harness, name)))
    return calls


def fresh_entry(entry) -> CorpusEntry:
    """The entry with a new copy of its group, so no chain, class table or
    scan of another record's group is reused."""
    G = entry.group
    return CorpusEntry(entry.name, entry.source, PermGroup(G.degree, G.generators), entry.declared_degree)


def comparable(name, value):
    """A field's value in a form that compares by value."""
    if value is None or name in ("solvable", "elusive", "two_closed", "prime_profile"):
        return value
    if name == "fixity":
        return value.fixity, value.witness.images if value.witness else None
    if name == "normal_lattice":
        return [
            (i.order.value, i.abelian_invariants, i.is_semiregular, i.is_minimal_normal,
             [g.images for g in i.subgroup.generators])
            for i in value
        ]
    return value.images  # a derangement


def fully_read(entry, caps, order):
    """The fields of a record of a fresh copy of the entry, read in the
    given order, then its skip reasons and its check results; each layer
    function is called at most once."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_layer_calls(monkeypatch)
        a = analyze(fresh_entry(entry), caps)
        fields = {name: comparable(name, getattr(a, name)) for name in order}
        results = [(r.check_id, r.status, r.witness) for r in (check(cid, a) for cid in CHECK_IDS)]
        reasons = dict(a.skip_reasons)
    names = [name for name, _ in calls]
    assert len(names) == len(set(names)), (entry.name, names)
    return fields, reasons, results


def transitive_entries():
    """Random groups made transitive by adding the n-cycle (0 1 ... n-1)."""
    from test_group import random_groups

    def entry(G):
        cycle = Permutation(list(range(1, G.degree)) + [0])
        return CorpusEntry("drawn", "hypothesis", PermGroup(G.degree, [*G.generators, cycle]), G.degree)

    return random_groups(max_degree=8).map(entry)


class TestOnDemand:
    """A record that computes its fields on first read must hold what it
    would hold were every field computed up front, whatever the order of
    the reads, though the fields share the chain, class table and scan
    cached on the group."""

    def assert_order_free(self, entry, caps, order):
        assert fully_read(entry, caps, order) == fully_read(entry, caps, FIELDS), (entry.name, order)

    @pytest.mark.parametrize("caps", ON_DEMAND_CAPS, ids=["defaults", "enumeration_closure", "lattice"])
    def test_corpus(self, corpus_entries, caps):
        for entry in corpus_entries:
            self.assert_order_free(entry, caps, FIELDS[::-1])
            # the order the checks read in, then the rest
            self.assert_order_free(entry, caps, ("fixity", "normal_lattice", "elusive", *FIELDS))

    @settings(max_examples=60, deadline=None)
    @given(transitive_entries(), st.permutations(FIELDS), st.sampled_from(ON_DEMAND_CAPS))
    def test_drawn_groups(self, entry, order, caps):
        self.assert_order_free(entry, caps, order)

    def test_verify_computes_only_what_the_checks_read(self, corpus_entries, monkeypatch):
        # these groups reach the lattice: C2_2 and the checks after it read
        # it once a group is elusive, and L2_1b once the fixity is at least 2
        lattice_readers = {
            "alternating_5", "alternating_6", "alternating_7", "alternating_8",
            "dihedral_4", "dihedral_6", "dihedral_8", "dihedral_10", "dihedral_12", "m11_12",
            "symmetric_4", "symmetric_5", "symmetric_6", "symmetric_7", "symmetric_8",
        }
        calls = record_layer_calls(monkeypatch)
        run_all(corpus_entries, jobs=1)
        assert len(corpus_entries) == 35
        counts = {name: 0 for name in perfbench_layer_calls()["harness"]}
        for name, _ in calls:
            counts[name] += 1
        assert counts == {
            "is_solvable": 0,
            "any_derangement": 0,
            "first_prime_derangement": 0,
            "prime_fix_profile": 1,
            "is_elusive": 35,
            "fixity": 35,
            "is_2_closed": 35,
            "normal_subgroups": 15,
        }
        name_of = {id(e.group): e.name for e in corpus_entries}
        assert {name_of[id(G)] for name, G in calls if name == "normal_subgroups"} == lattice_readers

    def test_crash_in_a_read_field_skips_the_group(self, monkeypatch):
        # C2_3 and A1 both read elusive first, and cyclic_3 is not elusive,
        # so neither of them reads the prime profile
        import pga.harness

        def boom(G, cap):
            raise RuntimeError("boom")

        entries = [builtin_family("cyclic", [3])]
        monkeypatch.setattr(pga.harness, "prime_fix_profile", boom)
        assert [r.status for r in run_all(entries, selection=("C2_3", "A1")).entries] == [VACUOUS, VACUOUS]
        monkeypatch.setattr(pga.harness, "is_elusive", boom)
        assert [(r.status, r.witness) for r in run_all(entries, selection=("C2_3", "A1")).entries] == [
            (SKIPPED, {"missing": "analysis", "reason": "RuntimeError: boom"})
        ] * 2

    def test_copy_and_pickle_keep_the_pending_fields(self, corpus_by_name):
        import copy
        import pickle

        entry = corpus_by_name["symmetric_4"]
        expected = fully_read(entry, Caps(), FIELDS)
        for duplicate in (copy.copy, lambda a: pickle.loads(pickle.dumps(a))):
            a = duplicate(analyze(fresh_entry(entry)))
            fields = {name: comparable(name, getattr(a, name)) for name in FIELDS}
            results = [(r.check_id, r.status, r.witness) for r in (check(cid, a) for cid in CHECK_IDS)]
            assert (fields, a.skip_reasons, results) == expected

    def test_synthetic_missing_field_takes_the_skip_path(self):
        # a missing field is computed once, on its first read, and leaves
        # the message of the cap that stopped it, as on a real record
        calls = []

        def capped():
            calls.append("fixity")
            _capped()

        a = GroupAnalysis("synthetic", 6, 12, {"fixity": (capped,)})
        assert [a.fixity, a.fixity, calls] == [None, None, ["fixity"]]
        assert a.skip_reasons == make_analysis(missing=("fixity",)).skip_reasons == {"fixity": "synthetic cap"}
        real = analyze(builtin_family("symmetric", [5]), Caps(enumeration_cap=50))
        assert real.fixity is None
        assert real.skip_reasons["fixity"] == "group order 120 exceeds enumeration cap 50"
        with pytest.raises(AttributeError):
            a.no_such_field


# ---------------------------------------------------------------------------
# check() semantics


class TestCheckSemantics:
    def test_c2_3_verified_on_m11(self, analysis_of):
        result = check("C2_3", analysis_of("m11_12"))
        assert result.status == VERIFIED

    def test_c2_3_vacuous_on_sym4(self, analysis_of):
        assert check("C2_3", analysis_of("symmetric_4")).status == VACUOUS

    def test_c2_3_violated_on_synthetic(self):
        a = make_analysis(elusive=True, fixity_value=2)
        result = check("C2_3", a)
        assert result.status == VIOLATED
        assert result.witness == {"fixity": 2}

    def test_unknown_check_id(self):
        with pytest.raises(PgaError, match="unknown check id 'nope'"):
            check("nope", make_analysis())

    def test_c2_5_violated_on_synthetic_odd_degree(self):
        a = make_analysis(degree=15, order=30, elusive=True, fixity_value=4)
        assert check("C2_5", a).status == VIOLATED

    def test_l2_6_bound_violation_carries_witness(self):
        # order-2 normal subgroup gives bound f * (2-1)/(2-1) = f < degree
        a = make_analysis(degree=6, order=12, elusive=True, fixity_value=3,
                          lattice=[make_info(2, invariants=(2,))])
        result = check("L2_6", a)
        assert result.status == VIOLATED
        assert result.witness["degree"] == 6

    def test_l2_7_all_clauses_hold_on_small_synthetic(self):
        a = make_analysis(degree=4, order=12, elusive=True, fixity_value=3,
                          lattice=[make_info(4, invariants=(2, 2))])
        assert check("L2_7", a).status == VERIFIED

    def test_l2_7_degree_above_its_bound(self):
        # |N| = 4 <= 2 * 3, but the degree exceeds 3 * (2 * 3 - 1) / (2 - 1) = 15
        a = make_analysis(degree=16, order=48, elusive=True, fixity_value=3,
                          lattice=[make_info(4, invariants=(2, 2))])
        result = check("L2_7", a)
        assert result.status == VIOLATED
        assert result.witness == {"clause": 2, "degree": 16, "bound": "15"}

    def test_c2_9_squarefree_abelian_normal_is_violation(self):
        a = make_analysis(elusive=True, fixity_value=3,
                          lattice=[make_info(6, invariants=(6,))])
        result = check("C2_9", a)
        assert result.status == VIOLATED
        assert result.witness["clause"] == 1

    def test_c2_9_fixity3_type_match(self):
        a = make_analysis(elusive=True, fixity_value=3,
                          lattice=[make_info(9, invariants=(3, 3))])
        assert check("C2_9", a).status == VERIFIED

    @pytest.mark.parametrize("order", [4, 9])
    def test_c2_9_fixity3_cyclic_is_violation(self, order):
        # past clauses 1 and 2, but cyclic where fixity 3 allows only (Z_p)^2
        a = make_analysis(elusive=True, fixity_value=3,
                          lattice=[make_info(order, invariants=(order,))])
        result = check("C2_9", a)
        assert result.status == VIOLATED
        assert result.witness == {"clause": 3, "subgroup_order": order, "invariants": [order]}

    def test_c2_9_fixity4_types(self):
        ok = make_analysis(elusive=True, fixity_value=4,
                           lattice=[make_info(18, invariants=(3, 6))])
        assert check("C2_9", ok).status == VERIFIED
        bad = make_analysis(elusive=True, fixity_value=4,
                            lattice=[make_info(18, invariants=(18,))])
        assert check("C2_9", bad).status == VIOLATED

    def test_c2_10_verdict_and_witness(self):
        lattice = [make_info(4, invariants=(2, 2))]
        a = make_analysis(elusive=False, two_closed=True, fixity_value=4, lattice=lattice)
        result = check("C2_10", a)
        assert result.status == VERIFIED
        assert result.witness["any_order"] is not None
        assert result.witness["prime_order"] is None
        b = make_analysis(elusive=False, two_closed=True, fixity_value=4,
                          lattice=lattice, derangement=None)
        result = check("C2_10", b)
        assert result.status == VIOLATED
        assert result.witness["any_order"] is None
        for field in ("derangement", "prime_derangement"):
            c = make_analysis(elusive=False, two_closed=True, fixity_value=4,
                              lattice=lattice, missing=(field,))
            result = check("C2_10", c)
            assert result.status == SKIPPED
            assert result.witness == {"missing": field, "reason": "synthetic cap"}

    def test_skip_names_missing_field(self):
        a = make_analysis(elusive=True, missing=("normal_lattice",))
        result = check("A3", a)
        assert result.status == SKIPPED
        assert result.witness["missing"] == "normal_lattice"

    def test_c2_8_reads_solvable_through_need(self):
        a = make_analysis(elusive=True, two_closed=True, fixity_value=6, missing=("solvable",))
        result = check("C2_8", a)
        assert result.status == SKIPPED
        assert result.witness == {"missing": "solvable", "reason": "synthetic cap"}
        b = make_analysis(elusive=True, two_closed=False, missing=("solvable",))
        assert check("C2_8", b).status == VACUOUS

    def test_vacuous_beats_skip_when_hypothesis_already_failed(self):
        # not elusive is decidable without the lattice
        a = make_analysis(elusive=False, missing=("normal_lattice",))
        assert check("A3", a).status == VACUOUS


# ---------------------------------------------------------------------------
# fuzzed status soundness


def invariant_options(order):
    """Abelian invariants of some abelian groups of the given order: the
    cyclic one, and a p split off when p**2 divides the order."""
    p = factorize(order).factors[0][0]
    return [(order,), (p, order // p)] if order % (p * p) == 0 else [(order,)]


def always_abelian(order):
    """Every group of order p or p**2 is abelian."""
    factors = factorize(order).factors
    return len(factors) == 1 and factors[0][1] <= 2


def lattice_infos():
    small_orders = st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 20, 25, 36, 50])

    def build(args):
        order, abelian, semiregular, inv_choice = args
        invariants = None
        if abelian or always_abelian(order):
            options = invariant_options(order)
            invariants = options[inv_choice % len(options)]
        return make_info(order, invariants, is_semiregular=semiregular)

    return st.tuples(small_orders, st.booleans(), st.booleans(), st.integers(0, 3)).map(build)


@st.composite
def synthetic_analyses(draw):
    degree = draw(st.integers(min_value=4, max_value=24))
    order = degree * draw(st.integers(min_value=1, max_value=60))
    return make_analysis(
        degree=degree,
        order=order,
        fixity_value=draw(st.integers(min_value=0, max_value=degree - 1)),
        elusive=draw(st.booleans()),
        two_closed=draw(st.sampled_from([True, False])),
        solvable=draw(st.booleans()),
        lattice=draw(st.lists(lattice_infos(), max_size=4)),
        derangement=draw(st.sampled_from(["auto", None])),
        prime_profile={
            p: frozenset(draw(st.sets(st.sampled_from([0, p, 2 * p, 3, 4, 1]), min_size=1, max_size=3)))
            for p in factorize(order).primes
        },
        missing=draw(
            st.sets(
                st.sampled_from(
                    ["fixity", "elusive", "two_closed", "solvable", "normal_lattice", "prime_profile",
                     "derangement", "prime_derangement"]
                ),
                max_size=2,
            )
        ),
    )


@st.composite
def c2_10_analyses(draw):
    """Records that hold C2_10's hypotheses (2-closed, fixity 4, a
    nontrivial p-subgroup in the lattice), with each derangement field
    present, None, or unknown because a cap left it out."""
    degree = draw(st.integers(min_value=5, max_value=24))
    p_order = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25]))
    invariants = draw(st.sampled_from(invariant_options(p_order))) if always_abelian(p_order) else None
    p_subgroup = make_info(p_order, invariants)
    lattice = draw(st.permutations([p_subgroup, *draw(st.lists(lattice_infos(), max_size=3))]))
    states = st.sampled_from(["present", None, "unknown"])
    fields = {"derangement": draw(states), "prime_derangement": draw(states)}
    return make_analysis(
        degree=degree,
        order=degree * draw(st.integers(min_value=1, max_value=60)),
        fixity_value=4,
        two_closed=True,
        lattice=lattice,
        derangement="auto" if fields["derangement"] == "present" else None,
        prime_derangement=Permutation.from_cycles("(0 1)(2 3)", degree) if fields["prime_derangement"] == "present" else None,
        missing=tuple(f for f, state in fields.items() if state == "unknown"),
    )


def assert_agrees(cid, a):
    """check(cid, a) ends as the independent evaluators say; returns the result."""
    result = check(cid, a)
    assert result.status in (VERIFIED, VACUOUS, VIOLATED, SKIPPED)
    hyp = INDEPENDENT_HYPS[cid](a)
    if result.status == SKIPPED:
        assert hyp is None
        assert result.witness and "missing" in result.witness
    elif result.status == VACUOUS:
        assert hyp is False
    else:
        assert hyp is True
        assert INDEPENDENT_CONCLS[cid](a) is (result.status == VERIFIED)
        assert result.status == VERIFIED or result.witness is not None
    return result


class TestStatusSoundness:
    @settings(max_examples=200, deadline=None)
    @given(c2_10_analyses())
    def test_c2_10_with_its_hypotheses_held(self, a):
        result = check("C2_10", a)
        hyp = INDEPENDENT_HYPS["C2_10"](a)
        assert hyp is not False
        if hyp is None:
            missing = "derangement" if "derangement" in a.skip_reasons else "prime_derangement"
            assert result.status == SKIPPED
            assert result.witness == {"missing": missing, "reason": "synthetic cap"}
            return
        assert result.status == (VERIFIED if INDEPENDENT_CONCLS["C2_10"](a) else VIOLATED)
        assert result.witness == {
            "any_order": a.derangement.cycle_string() if a.derangement else None,
            "prime_order": a.prime_derangement.cycle_string() if a.prime_derangement else None,
        }

    @settings(max_examples=400, deadline=None)
    @given(synthetic_analyses(), st.sampled_from(CHECK_IDS))
    def test_status_agrees_with_independent_evaluators(self, a, cid):
        assert_agrees(cid, a)

    @pytest.mark.parametrize("cid", CHECK_IDS)
    def test_skip_grid(self, cid):
        """Each field missing alone, on records that hold the elusive,
        2-closed and solvable hypotheses and have abelian normal p-subgroups
        Z2^2 and Z5^2: the status agrees with the independent evaluators,
        and a skip names the missing field.  This catches a check that reads
        a field directly instead of through _need."""
        lattice = [make_info(4, invariants=(2, 2)), make_info(25, invariants=(5, 5))]
        for field, degree, f in product(FIELDS, (12, 15), (2, 4, 6)):
            a = make_analysis(degree=degree, order=7 * degree, fixity_value=f, elusive=True, two_closed=True,
                              solvable=True, lattice=lattice, missing=(field,))
            result = assert_agrees(cid, a)
            if result.status == SKIPPED:
                assert result.witness == {"missing": field, "reason": "synthetic cap"}, (field, degree, f)

    def test_no_verified_with_false_hypothesis_on_corpus(self, corpus_entries, analysis_of):
        for entry in corpus_entries:
            a = analysis_of(entry.name)
            for cid in CHECK_IDS:
                result = check(cid, a)
                if result.status == VERIFIED:
                    assert INDEPENDENT_HYPS[cid](a) is True, (entry.name, cid)
                if result.status == VIOLATED:
                    assert INDEPENDENT_CONCLS[cid](a) is False, (entry.name, cid)


# ---------------------------------------------------------------------------
# run_all


class TestRunAll:
    def test_selection_filter(self, corpus_by_name):
        report = run_all([corpus_by_name["m11_12"]], selection=("C2_3",))
        assert len(report.entries) == 1
        assert report.entries[0].check_id == "C2_3"
        assert report.entries[0].status == VERIFIED

    def test_unknown_selection_rejected(self, corpus_by_name):
        with pytest.raises(PgaError, match=r"unknown check ids \['C9_99'\]"):
            run_all([corpus_by_name["m11_12"]], selection=("C9_99",))

    def test_intransitive_entry_becomes_skips(self):
        bad = CorpusEntry(
            "split", "synthetic", PermGroup(4, [Permutation.from_cycles("(0 1)", 4)]), 4
        )
        good = builtin_family("cyclic", [3])
        report = run_all([bad, good], selection=("C2_3", "A1"))
        by_group = {}
        for r in report.entries:
            by_group.setdefault(r.group, []).append(r.status)
        assert by_group["split"] == [SKIPPED, SKIPPED]
        assert SKIPPED not in by_group["cyclic_3"]

    def test_crash_in_one_analysis_keeps_the_others(self, monkeypatch):
        import pga.harness

        entries = [builtin_family("cyclic", [3]), builtin_family("symmetric", [3])]
        real = pga.harness.analyze

        def flaky(entry, caps):
            if entry.name == "cyclic_3":
                raise RuntimeError("boom")
            return real(entry, caps)

        monkeypatch.setattr(pga.harness, "analyze", flaky)
        report = run_all(entries, selection=("C2_3", "A1"), jobs=1)
        by_group = {}
        for r in report.entries:
            by_group.setdefault(r.group, []).append(r)
        assert [r.status for r in by_group["cyclic_3"]] == [SKIPPED, SKIPPED]
        assert all(r.witness["reason"] == "RuntimeError: boom" for r in by_group["cyclic_3"])
        assert [r.status for r in by_group["symmetric_3"]] == [VACUOUS, VACUOUS]

    def test_crash_in_chain_building_keeps_the_others(self, monkeypatch):
        # the fallback record needs the order, whose chain build fails again
        bad, good = builtin_family("cyclic", [3]), builtin_family("symmetric", [3])
        real = PermGroup.chain

        def chain(G):
            if G is bad.group:
                raise RecursionError("maximum recursion depth exceeded")
            return real(G)

        monkeypatch.setattr(PermGroup, "chain", chain)
        report = run_all([bad, good], selection=("C2_3", "A1"), jobs=1)
        by_group = {}
        for r in report.entries:
            by_group.setdefault(r.group, []).append(r)
        assert [(r.status, r.order) for r in by_group["cyclic_3"]] == [(SKIPPED, 0)] * 2
        reason = "RecursionError: maximum recursion depth exceeded"
        assert all(r.witness["reason"] == reason for r in by_group["cyclic_3"])
        assert [(r.status, r.order) for r in by_group["symmetric_3"]] == [(VACUOUS, 6)] * 2

    def test_pool_has_no_more_workers_than_groups(self, monkeypatch):
        import concurrent.futures

        class SerialPool:
            """Records the pool size asked for and runs the tasks in order."""

            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        entries = [builtin_family("cyclic", [3]), builtin_family("symmetric", [3]), builtin_family("cyclic", [5])]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        pooled = run_all(entries, selection=("C2_3", "A1"), jobs=5000)
        assert SerialPool.sizes == [3]
        serial = run_all(entries, selection=("C2_3", "A1"), jobs=1)
        assert SerialPool.sizes == [3]
        assert [(r.group, r.check_id, r.status) for r in pooled.entries] == [
            (r.group, r.check_id, r.status) for r in serial.entries
        ]

    def test_jobs_do_not_change_results(self, corpus_entries):
        small = [e for e in corpus_entries if e.group.order() <= 60]
        assert len(small) >= 10
        r1 = run_all(small, selection=("C2_3", "L2_6", "A4"), jobs=1)
        r2 = run_all(small, selection=("C2_3", "L2_6", "A4"), jobs=4)

        def strip(report):
            return [
                (r.group, r.check_id, r.status, r.witness) for r in report.entries
            ]

        assert strip(r1) == strip(r2)
        assert r1.metadata == r2.metadata

    def test_summarize_counts(self, corpus_by_name):
        report = run_all([corpus_by_name["m11_12"], corpus_by_name["cyclic_6"]])
        counts = summarize(report)
        assert counts["C2_3"][VERIFIED] == 1
        assert counts["C2_3"][VACUOUS] == 1
        total = sum(sum(b.values()) for b in counts.values())
        assert total == 2 * len(CHECK_IDS)
