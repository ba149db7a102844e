"""Command-line front end.

Subcommands: analyze, verify, two-closure, fixity, gen.  Exit codes:
0 success (verify: no violated results), 1 violated results, 2 parse or
parameter errors and files that cannot be read or written, 3 some result
skipped, because a resource cap was hit or a quantity is undefined
(verify: only with --strict), 141 (128 + SIGPIPE, as a shell reports a
process that signal ended) with nothing on stderr when the reader of
stdout closes it early.  Commands raise; only main turns
an error into its one "error: ..." line and exit code.  Each
subcommand takes the flags of only the caps it reads; a cap not given
keeps its default, and a cap or verify's --jobs below 1 exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .closure import orbitals, two_closure
from .config import DEFAULT_CAPS
from .corpus import (
    CorpusEntry,
    builtin_family,
    load_corpus,
    read_group_file,
    serialize_entry,
    write_report,
)
from .errors import CapExceededError, PgaError
from .fixity import fixity
from .harness import CHECK_IDS, SKIPPED, VIOLATED, analyze, run_all, summarize

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


# each Caps field and its flag; the flag stores into the field's name
_CAP_FLAGS = {
    "enumeration_cap": "--enumeration-cap",
    "lattice_cap": "--lattice-cap",
    "closure_degree_cap": "--closure-cap",
    "max_degree": "--max-degree",
}


def _add_cap_flags(parser, *fields):
    for field in fields:
        parser.add_argument(_CAP_FLAGS[field], dest=field, type=int, metavar="N")


def _caps_from(args):
    return DEFAULT_CAPS.with_overrides(**{f: v for f, v in vars(args).items() if f in _CAP_FLAGS})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pga", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"pga {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of one group file", allow_abbrev=False)
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "machine-records"], default="text")
    _add_cap_flags(p, *_CAP_FLAGS)

    p = sub.add_parser("verify", help="run the check suite over a corpus directory", allow_abbrev=False)
    p.add_argument("dir")
    p.add_argument("--check", default="all", metavar="LIST", help="comma-separated check ids, or 'all'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--strict", action="store_true", help="exit 3 when any result is skipped")
    p.add_argument("--format", choices=["text", "machine-records"], default="text")
    _add_cap_flags(p, *_CAP_FLAGS)

    p = sub.add_parser("two-closure", help="orbit coloring rank and 2-closure of one group", allow_abbrev=False)
    p.add_argument("file")
    p.add_argument("--emit", default=None, metavar="PATH", help="write the closure generators as a .grp file")
    _add_cap_flags(p, "closure_degree_cap", "max_degree")

    p = sub.add_parser("fixity", help="fixity and witness of one group", allow_abbrev=False)
    p.add_argument("file")
    _add_cap_flags(p, "enumeration_cap", "max_degree")

    p = sub.add_parser("gen", help="write a builtin family member as a .grp file", allow_abbrev=False)
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--out", required=True, metavar="PATH")
    _add_cap_flags(p, "max_degree")
    return parser


def _cmd_analyze(args) -> int:
    caps = _caps_from(args)
    a = analyze(read_group_file(args.file, caps.max_degree), caps)
    if args.format == "machine-records":
        print(json.dumps(_analysis_record(a), separators=(",", ":")))
    else:
        _print_analysis(a)
    return EXIT_CAPPED if a.skip_reasons else EXIT_OK


def _analysis_record(a) -> dict:
    return {
        "group": a.name,
        "degree": a.degree,
        "order": str(a.order),
        "transitive": True,  # analyze rejects intransitive groups
        "fixity": a.fixity.fixity if a.fixity else None,
        "elusive": a.elusive,
        "two_closed": a.two_closed,
        "solvable": a.solvable,
        "normal_orders": [str(i.order.value) for i in a.normal_lattice] if a.normal_lattice is not None else None,
        "skipped": sorted(a.skip_reasons),
    }


def _yesno(value) -> str:
    if value is None:
        return "skipped"
    return "yes" if value else "no"


def _witness(result) -> str:
    """A fixity witness in cycle notation, with the points it fixes."""
    fixed = ", ".join(map(str, sorted(result.witness.fixed_points())))
    return f"{result.witness.cycle_string()}  fixes {{{fixed}}}"


def _print_analysis(a) -> None:
    print(f"name: {a.name}")
    print(f"degree: {a.degree} = {a.degree_factored}")
    print(f"order: {a.order} = {a.order_factored}")
    print("transitive: yes")  # analyze rejects intransitive groups
    if a.fixity is not None:
        print(f"fixity: {a.fixity.fixity}  witness {_witness(a.fixity)}")
    else:
        print(f"fixity: skipped ({a.skip_reasons.get('fixity', '')})")
    print(f"elusive: {_yesno(a.elusive)}")
    print(f"2-closed: {_yesno(a.two_closed)}")
    print(f"solvable: {_yesno(a.solvable)}")
    if a.normal_lattice is not None:
        orders = ", ".join(str(i.order.value) for i in a.normal_lattice)
        print(f"normal subgroup orders: {orders}")
        minimal = ", ".join(str(i.order.value) for i in a.normal_lattice if i.is_minimal_normal)
        print(f"minimal normal orders: {minimal or '-'}")
    else:
        print(f"normal subgroup orders: skipped ({a.skip_reasons.get('normal_lattice', '')})")
    if a.prime_profile is not None:
        for p, counts in a.prime_profile.items():
            shown = "{" + ", ".join(map(str, sorted(counts))) + "}"
            print(f"fixed-point counts of {p}-power-order elements: {shown}")


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise PgaError(f"--jobs must be at least 1, got {args.jobs}")
    caps = _caps_from(args)
    if args.check.strip() == "all":
        selection = CHECK_IDS
    else:
        selection = tuple(s.strip() for s in args.check.split(",") if s.strip())
        if not selection:
            raise PgaError(f"--check {args.check!r} names no check id")
    entries = load_corpus(args.dir, caps)
    report = run_all(entries, selection, caps, jobs=args.jobs)
    if not entries:
        print("warning: corpus directory has no .grp files", file=sys.stderr)
    _emit_report(report, args)
    counts = summarize(report)
    if args.format == "text" and entries:
        _print_summary(counts, len(entries))
    violated = sum(c[VIOLATED] for c in counts.values())
    skipped = sum(c[SKIPPED] for c in counts.values())
    if violated:
        return EXIT_VIOLATED
    if args.strict and skipped:
        return EXIT_CAPPED
    return EXIT_OK


def _emit_report(report, args) -> None:
    if args.out:
        write_report(report, args.out)
    elif args.format == "machine-records":
        write_report(report, sys.stdout)


def _print_summary(counts, n_groups) -> None:
    print(f"groups: {n_groups}")
    print(f"{'check':8} {'verified':>9} {'vacuous':>9} {'violated':>9} {'skipped':>9}")
    for cid in CHECK_IDS:
        if cid not in counts:
            continue
        c = counts[cid]
        print(f"{cid:8} {c['verified']:>9} {c['vacuous']:>9} {c['violated']:>9} {c['skipped']:>9}")


def _cmd_two_closure(args) -> int:
    caps = _caps_from(args)
    entry = read_group_file(args.file, caps.max_degree)
    G = entry.group
    closure = two_closure(G, caps.closure_degree_cap)
    part = orbitals(G)
    order = G.order()
    closure_order = closure.order()
    print(f"group order: {order}")
    print(f"pair-orbit rank: {part.rank}")
    print(f"closure order: {closure_order}")
    print(f"is 2-closed: {'yes' if closure_order == order else 'no'}")
    if args.emit:
        out = CorpusEntry(
            name=f"{entry.name}_closure",
            source="computed",
            group=closure,
            declared_degree=G.degree,
        )
        Path(args.emit).write_text(serialize_entry(out), encoding="utf-8")
    return EXIT_OK


def _cmd_fixity(args) -> int:
    caps = _caps_from(args)
    result = fixity(read_group_file(args.file, caps.max_degree).group, caps.enumeration_cap)
    print(f"fixity: {result.fixity}")
    print(f"witness: {_witness(result)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    entry = builtin_family(args.family, args.params, _caps_from(args))
    Path(args.out).write_text(serialize_entry(entry), encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "two-closure": _cmd_two_closure,
    "fixity": _cmd_fixity,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
        return code
    except BrokenPipeError:
        # stdout now on devnull, so the interpreter's final flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED if isinstance(exc, CapExceededError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
