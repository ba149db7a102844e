"""Hypothesis/conclusion checks over analyzed groups.

Every check consumes only the GroupAnalysis record, never recomputes
group theory, so each one is a pure predicate pair that can be exercised
on synthetic records.  Statuses form a closed set:

    verified   hypotheses held and the conclusion held
    vacuous    some hypothesis failed
    violated   hypotheses held, conclusion failed; a witness is attached
    skipped    a field the check needs hit a cap or is undefined for the input

A check states its hypotheses in order, then its conclusion.  It reads
each field it needs through _need, and a check is skipped exactly when
skip_reasons names a field it needs: _need then ends it with the field
and its skip reason as witness.  It states each hypothesis through
_assume, which ends the check as vacuous when the hypothesis fails.  So
a hypothesis decided before a missing field is read still makes the
check vacuous.  A check that reaches its conclusion returns (status,
witness); check() alone turns that, or the early ending, into a
CheckResult.

A record has one constructor, GroupAnalysis(name, degree, order,
pending), where pending maps each other field to (fn, *args).  A field
is set in one place, __getattr__, which computes it on its first read,
and a skip reason is written in one place, the except clause there that
catches a cap or an undefined quantity.  analyze fills pending with the
layer functions it looks up in this module when it is called, so a
check computes only the fields its hypotheses reach.  In run_all, a
failure while a check computes a field skips every check of that group,
as a failure in analyze does; a field that no check reads is never
computed.

Bounds are evaluated in exact rational arithmetic; no floating point.
Check ids are stable opaque labels used in reports and on the command
line.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import __version__
from .closure import is_2_closed
from .config import Caps, DEFAULT_CAPS
from .corpus import CorpusEntry, Report, report_metadata
from .errors import CapExceededError, PgaError
from .fixity import (
    any_derangement,
    first_prime_derangement,
    fixity,
    is_elusive,
    prime_fix_profile,
)
from .structure import (
    FactoredInteger,
    factorize,
    is_solvable,
    normal_subgroups,
)

VERIFIED = "verified"
VACUOUS = "vacuous"
VIOLATED = "violated"
SKIPPED = "skipped"

CHECK_IDS = (
    "L2_1a",
    "L2_1b",
    "C2_2",
    "C2_3",
    "L2_4i",
    "L2_4ii",
    "C2_5",
    "L2_6",
    "L2_7",
    "C2_8",
    "C2_9",
    "C2_10",
    "A1",
    "A2",
    "A3",
    "A4",
)


class GroupAnalysis:
    """Aggregate per-group record consumed by the checks.

    GroupAnalysis(name, degree, order, pending) is the only constructor:
    pending maps each of the eight other fields to (fn, *args), computed
    on the field's first read.  A field that a cap stops is None and named
    in skip_reasons, with the reason; skip_reasons alone marks a field
    unavailable, as None is a value of derangement and prime_derangement
    (no such element exists).
    """

    __slots__ = (
        "name", "degree", "order", "solvable", "fixity", "elusive", "two_closed",
        "prime_profile", "normal_lattice", "derangement", "prime_derangement", "_skips", "_pending",
    )

    def __init__(self, name: str, degree: int, order: int, pending: dict):
        self.name, self.degree, self.order = name, degree, order
        self._skips = {}
        self._pending = pending  # field -> (fn, *args), each picklable

    def __getattr__(self, name):
        """Compute an unset field as fn(*args), or None with str(exc) as its
        skip reason when a CapExceededError (a cap or an undefined quantity) stops it."""
        if name == "_pending":  # unset while copy or pickle rebuilds a record
            raise AttributeError(name)
        try:
            fn, *args = self._pending[name]
        except KeyError:
            raise AttributeError(name) from None
        try:
            value = fn(*args)
        except CapExceededError as exc:
            self._skips[name] = str(exc)
            value = None
        setattr(self, name, value)
        return value

    @property
    def skip_reasons(self) -> dict:
        for name in self._pending:
            getattr(self, name)
        return self._skips

    @property
    def degree_factored(self) -> FactoredInteger:
        return factorize(self.degree)

    @property
    def order_factored(self) -> FactoredInteger:
        return factorize(self.order)

    @property
    def stab_order_factored(self) -> FactoredInteger:
        return factorize(self.order // self.degree)


class CheckResult:
    __slots__ = ("group", "degree", "order", "check_id", "status", "witness")

    def __init__(self, group: str, degree: int, order: int, check_id: str, status: str, witness: dict | None = None):
        self.group = group
        self.degree = degree
        self.order = order
        self.check_id = check_id
        self.status = status
        self.witness = witness


def analyze(entry: CorpusEntry, caps: Caps = DEFAULT_CAPS) -> GroupAnalysis:
    """The per-group record, with every field but name, degree and order
    computed on its first read (GroupAnalysis.__getattr__).

    Rejects intransitive groups.  Each layer function is looked up by its
    name in this module when analyze is called, where perfbench's traced
    run replaces it; reading skip_reasons computes every field.
    """
    G = entry.group
    if not G.is_transitive():
        raise PgaError(f"{entry.name}: the checks assume a transitive group")
    cap = caps.enumeration_cap
    return GroupAnalysis(entry.name, G.degree, G.order(), {
        "elusive": (is_elusive, G, cap),
        "prime_profile": (prime_fix_profile, G, cap),
        "derangement": (any_derangement, G, cap),
        "prime_derangement": (first_prime_derangement, G, cap),
        "fixity": (fixity, G, cap),
        "two_closed": (is_2_closed, G, caps.closure_degree_cap),
        "normal_lattice": (normal_subgroups, G, cap, caps.lattice_cap),
        "solvable": (is_solvable, G),
    })


class _Ended(Exception):
    """A check ended before its conclusion; args are (status, witness)."""


def _need(a: GroupAnalysis, field: str):
    """The field's value; the check is skipped when the field has a skip
    reason.  Computes no other field."""
    value = getattr(a, field)
    if field in a._skips:
        raise _Ended(SKIPPED, {"missing": field, "reason": a._skips[field]})
    return value


def _assume(hypothesis) -> None:
    """The check is vacuous unless the hypothesis holds."""
    if not hypothesis:
        raise _Ended(VACUOUS, None)


def _nontrivial(lattice):
    return [i for i in lattice if i.order.value > 1]


def _p_subgroups(lattice):
    return [i for i in _nontrivial(lattice) if i.is_p_group_for is not None]


def _abelian_normals(lattice):
    return [i for i in _nontrivial(lattice) if i.is_abelian]


def _check_L2_1a(a: GroupAnalysis):
    """Primes above the fixity that divide the stabilizer order divide it
    to the full multiplicity of the group order (fixity at least 2)."""
    f = _need(a, "fixity").fixity
    large = [p for p in a.stab_order_factored.primes if p > f]
    _assume(f >= 2 and large)
    for p in large:
        v_stab = a.stab_order_factored.valuation(p)
        v_group = a.order_factored.valuation(p)
        if v_stab != v_group:
            return VIOLATED, {
                "prime": p, "stabilizer_valuation": v_stab, "group_valuation": v_group
            }
    return VERIFIED, None


def _check_L2_1b(a: GroupAnalysis):
    """With fixity at least 2, a prime with a nontrivial normal p-subgroup
    and p above the fixity cannot divide the stabilizer order."""
    f = _need(a, "fixity").fixity
    _assume(f >= 2)
    cands = [i for i in _p_subgroups(_need(a, "normal_lattice")) if i.is_p_group_for > f]
    _assume(cands)
    for info in cands:
        p = info.is_p_group_for
        if p in a.stab_order_factored.primes:
            return VIOLATED, {"prime": p, "subgroup_order": info.order.value}
    return VERIFIED, None


def _check_C2_2(a: GroupAnalysis):
    """Elusive with a nontrivial normal p-subgroup forces p at most the fixity."""
    _assume(_need(a, "elusive"))
    cands = _p_subgroups(_need(a, "normal_lattice"))
    _assume(cands)
    f = _need(a, "fixity").fixity
    for info in cands:
        p = info.is_p_group_for
        if p > f:
            return VIOLATED, {"prime": p, "subgroup_order": info.order.value, "fixity": f}
    return VERIFIED, None


def _check_C2_3(a: GroupAnalysis):
    """Elusive groups have fixity at least 3."""
    _assume(_need(a, "elusive"))
    f = _need(a, "fixity").fixity
    if f < 3:
        return VIOLATED, {"fixity": f}
    return VERIFIED, None


def _lemma_2_4_fixity(a: GroupAnalysis) -> int:
    """Assume Lemma 2.4's hypotheses (elusive, at least two primes divide
    the degree, fixity at least 3) and return the fixity."""
    _assume(_need(a, "elusive") and len(a.degree_factored.factors) >= 2)
    f = _need(a, "fixity").fixity
    _assume(f >= 3)
    return f


def _check_L2_4i(a: GroupAnalysis):
    """Every prime dividing the degree is at most the fixity."""
    f = _lemma_2_4_fixity(a)
    for p in a.degree_factored.primes:
        if p > f:
            return VIOLATED, {"prime": p, "fixity": f}
    return VERIFIED, None


def _check_L2_4ii(a: GroupAnalysis):
    """For p dividing the degree, nontrivial p-power-order elements fix
    either no points or a positive multiple of p within the fixity; a
    nonzero multiple of p is at least p, so only count <= f is tested."""
    f = _lemma_2_4_fixity(a)
    counts_by_prime = _need(a, "prime_profile")
    for p in a.degree_factored.primes:
        for count in sorted(counts_by_prime.get(p, ())):
            if count != 0 and (count % p != 0 or count > f):
                return VIOLATED, {"prime": p, "fix_count": count, "fixity": f}
    return VERIFIED, None


def _check_C2_5(a: GroupAnalysis):
    """Elusive on an odd-size point set forces fixity at least 5."""
    _assume(_need(a, "elusive") and a.degree % 2 == 1)
    f = _need(a, "fixity").fixity
    if f < 5:
        return VIOLATED, {"fixity": f, "degree": a.degree}
    return VERIFIED, None


def _check_L2_6(a: GroupAnalysis):
    """The degree is bounded by fixity times the smallest (|H|-1)/(p_H-1)
    over nontrivial normal subgroups H, in exact rationals."""
    _assume(_need(a, "elusive"))
    nontrivial = _nontrivial(_need(a, "normal_lattice"))
    _assume(nontrivial)
    f = _need(a, "fixity").fixity
    bound = f * min(Fraction(i.order.value - 1, i.smallest_prime - 1) for i in nontrivial)
    if Fraction(a.degree) > bound:
        return VIOLATED, {"degree": a.degree, "bound": str(bound)}
    return VERIFIED, None


def _check_L2_7(a: GroupAnalysis):
    """A nontrivial normal abelian subgroup N with least prime p has order
    at most p*f, and the degree is at most f(pf-1)/(p-1) <= f(2f-1).  The
    last bound needs no test: f(pf-1)/(p-1) - f(2f-1) = -f(f-1)(p-2)/(p-1),
    which is at most 0 for every integer f >= 0 and p >= 2."""
    _assume(_need(a, "elusive"))
    abelians = _abelian_normals(_need(a, "normal_lattice"))
    _assume(abelians)
    f = _need(a, "fixity").fixity
    for info in abelians:
        p = info.smallest_prime
        if info.order.value > p * f:
            return VIOLATED, {"clause": 1, "subgroup_order": info.order.value, "bound": p * f}
        degree_bound = Fraction(f * (p * f - 1), p - 1)
        if Fraction(a.degree) > degree_bound:
            return VIOLATED, {"clause": 2, "degree": a.degree, "bound": str(degree_bound)}
    return VERIFIED, None


def _check_C2_8(a: GroupAnalysis):
    """A 2-closed elusive solvable group has fixity at least 6."""
    _assume(_need(a, "elusive"))
    _assume(_need(a, "two_closed") and _need(a, "solvable"))
    f = _need(a, "fixity").fixity
    if f < 6:
        return VIOLATED, {"fixity": f}
    return VERIFIED, None


def _fixity_4_types(factors) -> list:
    """Invariant-factor patterns allowed for an abelian normal subgroup of
    the given order factorization when the fixity is 4: (Z_3)^2, and with
    least prime 2, (Z_2)^2, Z_2 x (Z_p)^2 and (Z_2)^2 x Z_p."""
    if factors[0][0] == 3:
        return [(3, 3)]
    if factors == ((2, 2),):
        return [(2, 2)]
    if len(factors) == 2 and factors[0] == (2, 1) and factors[1][1] == 2:
        p = factors[1][0]
        return [(p, 2 * p)]
    if len(factors) == 2 and factors[0] == (2, 2) and factors[1][1] == 1:
        p = factors[1][0]
        return [(2, 2 * p)]
    return []


def _check_C2_9(a: GroupAnalysis):
    """Constraints on a nontrivial normal abelian subgroup of an elusive
    group: never squarefree order, least prime power bound, and exact
    isomorphism types when the fixity is 3 or 4.  Clause 3 need not test
    that the least prime p1 is 2 or 3: past clause 1 the total exponent
    is at least 2, so past clause 2, p1 <= p1**(total-1) <= f = 3."""
    _assume(_need(a, "elusive"))
    abelians = _abelian_normals(_need(a, "normal_lattice"))
    _assume(abelians)
    f = _need(a, "fixity").fixity
    for info in abelians:
        order, factors = info.order.value, info.order.factors
        p1 = factors[0][0]
        total = sum(e for _, e in factors)
        if all(e == 1 for _, e in factors):
            return VIOLATED, {"clause": 1, "subgroup_order": order}
        if p1 ** (total - 1) > f:
            return VIOLATED, {"clause": 2, "subgroup_order": order, "fixity": f}
        invariants = info.abelian_invariants
        if f == 3 and invariants != (p1, p1):
            return VIOLATED, {"clause": 3, "subgroup_order": order, "invariants": list(invariants)}
        if f == 4 and invariants not in _fixity_4_types(factors):
            return VIOLATED, {"clause": 4, "subgroup_order": order, "invariants": list(invariants)}
    return VERIFIED, None


def _check_C2_10(a: GroupAnalysis):
    """A transitive 2-closed group of fixity 4 with a nontrivial normal
    p-subgroup has a fixed-point-free element.  The verdict uses the
    any-order reading; the prime-order result rides in the witness."""
    _assume(_need(a, "two_closed"))
    _assume(_need(a, "fixity").fixity == 4)
    _assume(_p_subgroups(_need(a, "normal_lattice")))
    # None in a derangement field means that none exists
    derangement, prime_derangement = _need(a, "derangement"), _need(a, "prime_derangement")
    witness = {
        "any_order": derangement.cycle_string() if derangement else None,
        "prime_order": prime_derangement.cycle_string() if prime_derangement else None,
    }
    return (VERIFIED if derangement is not None else VIOLATED), witness


def _check_A1(a: GroupAnalysis):
    """In an elusive group the stabilizer order has the same prime divisors
    as the group order."""
    _assume(_need(a, "elusive"))
    group, stab = a.order_factored.primes, a.stab_order_factored.primes
    if group != stab:
        return VIOLATED, {"group_primes": list(group), "stabilizer_primes": list(stab)}
    return VERIFIED, None


def _check_A2(a: GroupAnalysis):
    """An elusive group never acts on a prime-power number of points."""
    _assume(_need(a, "elusive"))
    if len(a.degree_factored.factors) == 1:
        return VIOLATED, {"degree": a.degree}
    return VERIFIED, None


def _check_A3(a: GroupAnalysis):
    """An elusive group has no nontrivial cyclic normal subgroup."""
    _assume(_need(a, "elusive"))
    for info in _nontrivial(_need(a, "normal_lattice")):
        if info.is_cyclic:
            return VIOLATED, {"subgroup_order": info.order.value}
    return VERIFIED, None


def _check_A4(a: GroupAnalysis):
    """An elusive group has no nontrivial semiregular normal subgroup."""
    _assume(_need(a, "elusive"))
    for info in _nontrivial(_need(a, "normal_lattice")):
        if info.is_semiregular:
            return VIOLATED, {"subgroup_order": info.order.value}
    return VERIFIED, None


_CHECKS = {cid: globals()[f"_check_{cid}"] for cid in CHECK_IDS}


def check(check_id: str, a: GroupAnalysis) -> CheckResult:
    """Run one check against an analysis record."""
    try:
        fn = _CHECKS[check_id]
    except KeyError:
        raise PgaError(f"unknown check id {check_id!r}") from None
    try:
        status, witness = fn(a)
    except _Ended as ended:
        status, witness = ended.args
    return CheckResult(a.name, a.degree, a.order, check_id, status, witness)


def _entry_results(entry: CorpusEntry, selection, caps: Caps) -> list:
    try:
        a = analyze(entry, caps)
        return [check(cid, a) for cid in selection]
    except Exception as exc:
        # any failure stays with its group, so the other groups' results
        # survive; a check that reads a field computes it here
        reason = str(exc) if isinstance(exc, PgaError) else f"{type(exc).__name__}: {exc}"
        try:
            order = entry.group.order()
        except Exception:
            order = 0  # the order failed too; no group has order 0
        return [
            CheckResult(
                entry.name,
                entry.declared_degree,
                order,
                cid,
                SKIPPED,
                {"missing": "analysis", "reason": reason},
            )
            for cid in selection
        ]


def run_all(
    corpus,
    selection=CHECK_IDS,
    caps: Caps = DEFAULT_CAPS,
    jobs: int = 1,
) -> Report:
    """Run the selected checks over every corpus entry.

    Per-entry failures become skipped results and never abort the other
    entries; output ordering is deterministic regardless of jobs.
    """
    requested = set(selection)
    unknown = requested - set(CHECK_IDS)
    if unknown:
        raise PgaError(f"unknown check ids {sorted(unknown)}")
    selection = tuple(cid for cid in CHECK_IDS if cid in requested)
    entries = sorted(corpus, key=lambda e: e.name)
    results_of = partial(_entry_results, selection=selection, caps=caps)
    if jobs > 1 and len(entries) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so one process never loads multiprocessing

        # fork starts every worker on the first submit, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
            chunks = list(pool.map(results_of, entries))
    else:
        chunks = [results_of(e) for e in entries]
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.group, r.check_id))
    return Report(metadata=report_metadata(__version__, caps, entries), entries=results)


def summarize(report: Report) -> dict:
    """Per-check status counts, keyed by check id."""
    summary = {}
    for r in report.entries:
        bucket = summary.setdefault(r.check_id, {VERIFIED: 0, VACUOUS: 0, VIOLATED: 0, SKIPPED: 0})
        bucket[r.status] += 1
    return summary
