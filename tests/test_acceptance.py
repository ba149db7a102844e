"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Golden values (the M11 fixity, the corpus status counts) were computed
once against the independent oracles in this suite and then frozen.
"""

import time
from itertools import permutations as all_perms

from pga.cli import main as cli_main
from pga.closure import orbitals, two_closure
from pga.corpus import load_corpus, read_report
from pga.fixity import first_prime_derangement, fixity, is_elusive
from pga.perm import Permutation

from oracles import brute_two_closure, naive_closure

# frozen after the first oracle-validated run over the bundled corpus
GOLDEN_STATUS_COUNTS = {
    "L2_1a": {"verified": 8, "vacuous": 27, "violated": 0, "skipped": 0},
    "L2_1b": {"verified": 3, "vacuous": 32, "violated": 0, "skipped": 0},
    "C2_2": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "C2_3": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "L2_4i": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "L2_4ii": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "C2_5": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "L2_6": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "L2_7": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "C2_8": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "C2_9": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "C2_10": {"verified": 0, "vacuous": 35, "violated": 0, "skipped": 0},
    "A1": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "A2": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "A3": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
    "A4": {"verified": 1, "vacuous": 34, "violated": 0, "skipped": 0},
}

MUST_BE_NON_VACUOUS = ("C2_3", "L2_4i", "L2_4ii", "L2_6", "A1", "A2", "A3", "A4")

M11_FIXITY = 4  # frozen golden value from the exhaustive scan


def _report(n, description, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.1f}s): {description}")


def test_criterion_1_order_and_membership_oracle(corpus_entries):
    started = time.perf_counter()
    checked_orders = 0
    for entry in corpus_entries:
        gens = [g.images for g in entry.group.generators]
        closure = naive_closure(gens, limit=5000)
        if closure is None:
            assert entry.group.order() > 5000, entry.name
            continue
        assert entry.group.order() == len(closure), entry.name
        checked_orders += 1
    assert checked_orders >= 25
    checked_membership = 0
    for entry in corpus_entries:
        n = entry.group.degree
        if n > 5:
            continue
        closure = naive_closure([g.images for g in entry.group.generators])
        for img in all_perms(range(n)):
            assert entry.group.contains(Permutation(img)) == (img in closure), entry.name
        checked_membership += 1
    assert checked_membership >= 5
    _report(
        1,
        f"chain order equals naive closure on {checked_orders} groups; "
        f"membership matches closure over all of Sym(n<=5) on {checked_membership} groups",
        started,
        30,
    )


def test_criterion_2_two_closure_oracle(corpus_entries):
    started = time.perf_counter()
    checked = 0
    for entry in corpus_entries:
        G = entry.group
        if G.degree > 7:
            continue
        expected = brute_two_closure([g.images for g in G.generators], G.degree)
        H = two_closure(G)
        assert H.order() == len(expected), entry.name
        assert all(H.contains(Permutation(img)) for img in expected), entry.name
        assert all(g.images in expected for g in H.generators), entry.name
        checked += 1
    assert checked >= 15
    _report(2, f"backtracker equals the n!-filter oracle on {checked} groups of degree <= 7", started, 60)


def test_criterion_3_burnside_rank_identity(corpus_entries):
    started = time.perf_counter()
    checked = 0
    for entry in corpus_entries:
        G = entry.group
        if G.order() > 100_000:
            continue
        rank = orbitals(G).rank
        square_sum = sum(size * g.fixed_point_count() ** 2 for g, size in G.conjugacy_classes())
        assert rank * G.order() == square_sum, entry.name
        checked += 1
    assert checked == len(corpus_entries)
    _report(3, f"rank * |G| = sum of |Fix(g)|^2 exactly on all {checked} groups", started, 60)


def test_criterion_4_containment_and_idempotence(corpus_entries):
    started = time.perf_counter()
    checked = 0
    for entry in corpus_entries:
        G = entry.group
        if G.degree > 10:
            continue
        H = two_closure(G)
        assert all(H.contains(g) for g in G.generators), entry.name
        assert two_closure(H).order() == H.order(), entry.name
        checked += 1
    assert checked >= 20
    _report(4, f"G <= closure(G) and closure is idempotent on {checked} groups of degree <= 10", started, 120)


def test_criterion_5_check_suite_over_corpus(corpus_dir, tmp_path, capsys):
    started = time.perf_counter()
    out_path = tmp_path / "acceptance_report.jsonl"
    code = cli_main(
        ["verify", str(corpus_dir), "--check", "all", "--jobs", "1", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    _, records = read_report(out_path)
    assert len(records) == 35 * 16
    counts = {}
    for r in records:
        counts.setdefault(r["check"], {"verified": 0, "vacuous": 0, "violated": 0, "skipped": 0})
        counts[r["check"]][r["status"]] += 1
    assert all(r["status"] != "violated" for r in records)
    for cid in MUST_BE_NON_VACUOUS:
        verified_on = [r["group"] for r in records if r["check"] == cid and r["status"] == "verified"]
        assert "m11_12" in verified_on, cid
    assert counts == GOLDEN_STATUS_COUNTS
    _report(5, "verify over the 35-group corpus exits 0 with the frozen status table", started, 180)


def test_criterion_6_m11_facts_from_scratch(corpus_dir):
    started = time.perf_counter()
    entry = next(e for e in load_corpus(corpus_dir) if e.name == "m11_12")
    G = entry.group
    assert G.order() == 7920
    assert G.is_transitive()
    assert G.point_stabilizer(0).order() == 660
    assert is_elusive(G)
    assert first_prime_derangement(G) is None
    f = fixity(G).fixity
    assert f >= 3
    assert f == M11_FIXITY
    _report(6, "degree-12 Mathieu group: order 7920, transitive, stabilizer 660, elusive, fixity 4", started, 30)


def test_criterion_7_definition_equivalences(corpus_by_name, corpus_entries):
    started = time.perf_counter()
    for entry in corpus_entries:
        G = entry.group  # transitive, so regular iff |G| = n
        assert (fixity(G).fixity == 0) == (G.order() == G.degree), entry.name
    for name in ("frobenius_5_4", "frobenius_7_3", "dihedral_5"):
        assert fixity(corpus_by_name[name].group).fixity == 1, name
    _report(7, "fixity 0 iff regular on every group; fixity 1 on the Frobenius builtins", started, 60)


def test_criterion_8_determinism_across_jobs(corpus_dir, tmp_path, capsys):
    started = time.perf_counter()
    paths = []
    for jobs in ("1", "8"):
        path = tmp_path / f"report_jobs{jobs}.jsonl"
        code = cli_main(
            ["verify", str(corpus_dir), "--check", "all", "--jobs", jobs, "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        paths.append(path)

    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report(8, "reports for --jobs 1 and --jobs 8 are byte-identical", started, 180)
