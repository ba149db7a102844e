import io
from math import factorial

import pytest

from pga import corpus
from pga.config import Caps
from pga.corpus import (
    Report,
    builtin_family,
    corpus_digest,
    load_corpus,
    parse_group_file,
    read_group_file,
    read_report,
    render_report_lines,
    report_metadata,
    serialize_entry,
    write_report,
)
from pga.errors import GroupFileError, PgaError
from pga.fixity import fixity
from pga.harness import CheckResult
from pga.perm import Permutation


class TestParseGroupFile:
    def test_cyclic_four(self):
        entry = parse_group_file("name: C4\ndegree: 4\ngen: (0 1 2 3)\n")
        assert entry.name == "C4"
        assert entry.group.order() == 4

    def test_img_line(self):
        entry = parse_group_file("name: k\ndegree: 4\nimg: 1 0 3 2\n")
        assert entry.group.generators[0] == Permutation.from_cycles("(0 1)(2 3)", 4)

    def test_point_out_of_range_names_line(self):
        with pytest.raises(GroupFileError) as err:
            parse_group_file("name: bad\ndegree: 3\ngen: (0 1 4)\n")
        assert err.value.line == 3

    def test_non_ascii_digit_point_names_line(self):
        # "²" and "٣" pass str.isdigit, and int() rejects or converts them
        for point in ("\u00b2", "\u0663"):
            with pytest.raises(GroupFileError) as err:
                parse_group_file(f"name: bad\ndegree: 4\n\ngen: (0 {point})\n", source="bad.grp")
            assert (err.value.line, err.value.source) == (4, "bad.grp")
            assert "bad point" in str(err.value)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("degree: \u0663", "bad degree '\u0663'"),
            ("degree: 1_0", "bad degree '1_0'"),
            ("degree: +3", "bad degree '+3'"),
            ("degree: 3\nimg: \u0661 \u0662 \u0660", "bad image '\u0661'"),
            ("degree: 3\nimg: 1 2 0_0", "bad image '0_0'"),
        ],
    )
    def test_integers_are_ascii_digits(self, body, message):
        # int() takes all of these; the last line holds the bad integer
        text = f"name: bad\n{body}\n"
        with pytest.raises(GroupFileError) as err:
            parse_group_file(text, source="bad.grp")
        assert (err.value.line, err.value.source) == (text.count("\n"), "bad.grp")
        assert message in str(err.value)

    def test_no_generators_is_trivial(self):
        entry = parse_group_file("name: t\ndegree: 3\n")
        assert entry.group.order() == 1

    def test_comments_and_blanks_ignored(self):
        text = "name: c2\ndegree: 2\n\n# a comment\n# expect: x\ngen: (0 1)\n\n"
        assert parse_group_file(text).group.order() == 2

    def test_duplicate_keys_rejected(self):
        with pytest.raises(GroupFileError):
            parse_group_file("name: a\nname: b\ndegree: 2\n")
        with pytest.raises(GroupFileError):
            parse_group_file("name: a\ndegree: 2\ndegree: 2\n")

    def test_header_order_enforced(self):
        with pytest.raises(GroupFileError):
            parse_group_file("degree: 2\nname: a\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("name: a\nname: b\ndegree: 2\n", 2, "expected the degree line"),
            ("name: a\ndegree: 2\n\ndegree: 2\n", 4, "duplicate degree line"),
            ("# header\ndegree: 2\nname: a\n", 2, "expected the name line"),
            ("name: a\ngen: (0 1)\ndegree: 2\n", 2, "expected the degree line"),
            ("name: a\ndegree: 2\ngen: (0 1)\nname: b\n", 4, "duplicate name line"),
            ("", 1, "missing name line"),
        ],
    )
    def test_header_fault_names_its_line(self, text, line, message):
        with pytest.raises(GroupFileError) as err:
            parse_group_file(text, source="h.grp")
        assert (err.value.line, err.value.source) == (line, "h.grp")
        assert str(err.value) == f"h.grp:{line}: {message}"

    def test_unknown_key_rejected(self):
        with pytest.raises(GroupFileError) as err:
            parse_group_file("name: a\ndegree: 2\nfoo: bar\n")
        assert err.value.line == 3

    def test_img_wrong_length(self):
        with pytest.raises(GroupFileError):
            parse_group_file("name: a\ndegree: 3\nimg: 1 0\n")

    def test_degree_above_max_rejected(self):
        with pytest.raises(GroupFileError):
            parse_group_file("name: a\ndegree: 100\n", max_degree=64)


class TestRoundTrip:
    def test_serialize_parse(self):
        entry = builtin_family("dihedral", [5])
        again = parse_group_file(serialize_entry(entry))
        assert again.name == entry.name
        assert again.declared_degree == entry.declared_degree
        assert again.group.generators == entry.group.generators

    def test_corpus_round_trips(self, corpus_entries):
        for entry in corpus_entries:
            again = parse_group_file(serialize_entry(entry))
            assert again.group.generators == entry.group.generators, entry.name


class TestBuiltinFamilies:
    def test_claimed_orders(self):
        assert builtin_family("cyclic", [6]).group.order() == 6
        assert builtin_family("dihedral", [6]).group.order() == 12
        assert builtin_family("symmetric", [5]).group.order() == factorial(5)
        assert builtin_family("alternating", [6]).group.order() == factorial(6) // 2
        assert builtin_family("elem_abelian", [3, 2]).group.order() == 9
        assert builtin_family("frobenius", [5, 4]).group.order() == 20

    def test_frobenius_5_4(self):
        G = builtin_family("frobenius", [5, 4]).group
        assert G.degree == 5
        # Frobenius: transitive, not regular, and fixity 1
        assert G.is_transitive() and G.order() != G.degree
        assert fixity(G).fixity == 1

    def test_frobenius_7_2_multiplier_is_negation(self):
        G = builtin_family("frobenius", [7, 2]).group
        mult = G.generators[1]
        assert mult == Permutation([(-x) % 7 for x in range(7)])
        assert mult.fixed_points() == {0}

    def test_elem_abelian_regular(self):
        G = builtin_family("elem_abelian", [2, 2]).group
        assert G.degree == 4
        assert G.order() == 4
        assert fixity(G).fixity == 0

    def test_invalid_parameters(self):
        with pytest.raises(PgaError, match="frobenius needs q >= 2 dividing p-1 = 6"):
            builtin_family("frobenius", [7, 4])  # 4 does not divide 6
        with pytest.raises(PgaError, match="frobenius needs an odd prime p"):
            builtin_family("frobenius", [8, 2])  # 8 is not prime
        with pytest.raises(PgaError, match="dihedral needs n >= 3"):
            builtin_family("dihedral", [2])
        with pytest.raises(PgaError, match="unknown family 'nosuch'"):
            builtin_family("nosuch", [3])
        with pytest.raises(PgaError, match=r"cyclic takes 1 parameter\(s\), got 2"):
            builtin_family("cyclic", [3, 3])

    def test_degree_checked_against_the_callers_cap(self):
        assert builtin_family("elem_abelian", [2, 7], Caps(max_degree=128)).group.degree == 128
        small = Caps(max_degree=8)
        for family, params in [
            ("cyclic", [9]),
            ("dihedral", [9]),
            ("symmetric", [9]),
            ("alternating", [9]),
            ("elem_abelian", [3, 2]),
            ("elem_abelian", [2, 10**9]),
            ("frobenius", [11, 5]),
        ]:
            with pytest.raises(PgaError, match="exceeds the configured maximum 8"):
                builtin_family(family, params, small)

    def test_huge_prime_refused_before_the_primality_test(self, monkeypatch):
        # trial division of the prime 2**61 - 1 takes about 1.5e9 divisions
        def no_primality_test(n):
            pytest.fail(f"primality of {n} tested before the degree check")

        monkeypatch.setattr(corpus, "is_prime", no_primality_test)
        for family in ("frobenius", "elem_abelian"):
            with pytest.raises(PgaError, match="exceeds the configured maximum"):
                builtin_family(family, [2**61 - 1, 2])


class TestLoadCorpus:
    def test_load_sorted_by_name(self, corpus_dir):
        entries = load_corpus(corpus_dir)
        names = [e.name for e in entries]
        assert names == sorted(names)
        assert len(entries) >= 25

    def test_empty_directory(self, tmp_path):
        assert load_corpus(tmp_path) == []

    def test_missing_directory_is_a_load_error(self, tmp_path):
        with pytest.raises(GroupFileError):
            load_corpus(tmp_path / "nope")

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "a.grp").write_text("name: same\ndegree: 2\ngen: (0 1)\n")
        (tmp_path / "b.grp").write_text("name: same\ndegree: 3\n")
        with pytest.raises(GroupFileError):
            load_corpus(tmp_path)

    def test_parse_error_names_file(self, tmp_path):
        (tmp_path / "broken.grp").write_text("name: x\ndegree: 2\ngen: (0 5)\n")
        with pytest.raises(GroupFileError) as err:
            load_corpus(tmp_path)
        assert "broken.grp" in str(err.value)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "name: x\ndegree: 3\ngen: (0 1 2)\n"
        (tmp_path / "plain.grp").write_bytes(text.encode())
        (tmp_path / "bom.grp").write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain, bom = (read_group_file(tmp_path / f"{name}.grp") for name in ("plain", "bom"))
        assert serialize_entry(bom) == serialize_entry(plain) == text
        (tmp_path / "bad.grp").write_bytes(b"\xef\xbb\xbfname: x\n\xffdegree: 3\n")
        with pytest.raises(GroupFileError, match=r"bad\.grp:2: not UTF-8: .* position 11:"):
            read_group_file(tmp_path / "bad.grp")


class TestReportFormat:
    def make_report(self, entries=()):
        caps = Caps()
        results = [
            CheckResult("g1", 4, 24, "C2_3", "vacuous"),
            CheckResult("g1", 4, 24, "A1", "vacuous"),
            CheckResult("g0", 5, 20, "C2_3", "violated", {"fixity": 2}),
        ]
        return Report(metadata=report_metadata("0.0-test", caps, list(entries)), entries=results)

    def test_empty_report_has_metadata_line(self):
        report = Report(metadata=report_metadata("0.0-test", Caps(), []), entries=[])
        lines = render_report_lines(report)
        assert len(lines) == 1
        meta, records = read_report(io.StringIO("\n".join(lines)))
        assert meta["tool"] == "pga"
        assert records == []

    def test_records_sorted_and_typed(self):
        lines = render_report_lines(self.make_report())
        meta, records = read_report(io.StringIO("\n".join(lines)))
        assert [(r["group"], r["check"]) for r in records] == [
            ("g0", "C2_3"),
            ("g1", "A1"),
            ("g1", "C2_3"),
        ]
        assert all(isinstance(r["order"], str) for r in records)
        assert records[0]["witness"] == {"fixity": 2}
        assert records[1]["witness"] is None

    def test_write_and_read_path(self, tmp_path):
        dest = tmp_path / "report.jsonl"
        write_report(self.make_report(), dest)
        meta, records = read_report(dest)
        assert meta["caps"]["lattice_cap"] == 512
        assert len(records) == 3

    def test_digest_is_stable_and_order_insensitive(self):
        a = builtin_family("cyclic", [3])
        b = builtin_family("cyclic", [4])
        assert corpus_digest([a, b]) == corpus_digest([b, a])
        assert corpus_digest([a]) != corpus_digest([b])
