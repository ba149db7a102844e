"""Group files, builtin families, corpus loading, and report output.

Group file (.grp), UTF-8 (a leading byte-order mark is skipped), line
oriented::

    name: <token>         (required, first)
    degree: <int>         (required, second)
    gen: <cycles>         (zero or more)
    img: <d ints>         (zero or more; image-list form)

Every integer (the degree, img images, cycle points) is a run of ASCII
digits.  Comment lines starting with '#' and blank lines are ignored.
A file with no gen:/img: lines describes the trivial group.  A file
that is not UTF-8 is refused with its path and the line of the first
byte that does not decode.

Reports are line-delimited JSON: one metadata line, then one record per
(group, check) sorted by group name and check id.  Group orders are
serialized as decimal strings to avoid integer-width ambiguity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .config import Caps, DEFAULT_CAPS
from .errors import GroupFileError, PgaError
from .group import PermGroup
from .perm import Permutation, _ascii_int
from .structure import is_prime, smallest_primitive_root

TOOL_NAME = "pga"


class CorpusEntry:
    __slots__ = ("name", "source", "group", "declared_degree")

    def __init__(self, name: str, source: str, group: PermGroup, declared_degree: int):
        self.name = name
        self.source = source
        self.group = group
        self.declared_degree = declared_degree


def parse_group_file(text: str, source: str = "<string>", max_degree: int = DEFAULT_CAPS.max_degree) -> CorpusEntry:
    """Parse one .grp file: its first content line names the group, its
    second gives the degree, and every later one is a gen: or img: line."""
    name = degree = None
    gens = []
    content = [(n, raw.strip()) for n, raw in enumerate(text.splitlines(), start=1)]
    content = [(n, line) for n, line in content if line and not line.startswith("#")]
    try:
        for position, (lineno, line) in enumerate(content):
            key, sep, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise PgaError(f"expected 'key: value', got {line!r}")
            if key not in ("name", "degree", "gen", "img"):
                raise PgaError(f"unknown key {key!r}")
            if position == 0:
                if key != "name":
                    raise PgaError("expected the name line")
                if not value or any(c.isspace() for c in value):
                    raise PgaError(f"bad name {value!r}")
                name = value
            elif position == 1:
                if key != "degree":
                    raise PgaError("expected the degree line")
                degree = _ascii_int(value)
                if degree is None:
                    raise PgaError(f"bad degree {value!r}")
                if degree < 1:
                    raise PgaError(f"degree must be at least 1, got {degree}")
                if degree > max_degree:
                    raise PgaError(f"degree {degree} exceeds the configured maximum {max_degree}")
            elif key == "gen":
                gens.append(Permutation.from_cycles(value, degree))
            elif key == "img":
                parts = value.split()
                if len(parts) != degree:
                    raise PgaError(f"img needs exactly {degree} integers, got {len(parts)}")
                images = [_ascii_int(p) for p in parts]
                if None in images:
                    raise PgaError(f"bad image {parts[images.index(None)]!r}")
                gens.append(Permutation(images))
            else:
                raise PgaError(f"duplicate {key} line")
    except PgaError as exc:
        raise GroupFileError(str(exc), line=lineno, source=source) from exc
    if name is None:
        raise GroupFileError("missing name line", line=1, source=source)
    if degree is None:
        raise GroupFileError("missing degree line", line=1, source=source)
    return CorpusEntry(
        name=name,
        source=source,
        group=PermGroup(degree, gens),
        declared_degree=degree,
    )


def read_group_file(path, max_degree: int = DEFAULT_CAPS.max_degree) -> CorpusEntry:
    """Read the group file at path as UTF-8, a leading byte-order mark
    skipped, and parse it; errors name the path and give file offsets."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise GroupFileError(f"not UTF-8: {exc}", line=line, source=str(path)) from exc
    return parse_group_file(text, source=str(path), max_degree=max_degree)


def serialize_entry(entry: CorpusEntry) -> str:
    lines = [f"name: {entry.name}", f"degree: {entry.declared_degree}"]
    lines.extend(f"gen: {g.cycle_string()}" for g in entry.group.generators)
    return "\n".join(lines) + "\n"


def _cycle(points: list, degree: int) -> Permutation:
    """The cycle sending each listed point to the next, on degree points."""
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return Permutation(images)


def builtin_family(family: str, params, caps: Caps = DEFAULT_CAPS) -> CorpusEntry:
    """A named group from one of the builtin families.

    cyclic n          rotation of n points, order n
    dihedral n        rotation plus reflection, degree n >= 3, order 2n
    symmetric n       all permutations of n points, order n!
    alternating n     even permutations of n >= 3 points, order n!/2
    elem_abelian p k  translations of (Z_p)^k on p**k points, order p**k
    frobenius p q     x -> x+1 and x -> a*x mod p with a of order q | p-1,
                      degree p, order p*q; a = g**((p-1)/q) for the least
                      primitive root g

    Every family refuses a degree above caps.max_degree.  A parameter
    given as a string must be a run of ASCII digits, as numbers in group
    files are, and the name spells the integers read.
    """
    params = [p if isinstance(p, int) else _ascii_int(str(p)) for p in params]
    if None in params:
        raise PgaError(f"{family} parameters must be runs of ASCII digits")
    name = "_".join([family] + [str(p) for p in params])

    def check_degree(degree):
        if degree > caps.max_degree:
            raise PgaError(f"degree {degree} exceeds the configured maximum {caps.max_degree}")

    def entry(degree, gens):
        return CorpusEntry(
            name=name,
            source=f"builtin:{family}",
            group=PermGroup(degree, gens),
            declared_degree=degree,
        )

    if family == "cyclic":
        (n,) = _family_params(family, params, 1)
        if n < 1:
            raise PgaError("cyclic needs n >= 1")
        check_degree(n)
        return entry(n, [_cycle(list(range(n)), n)])
    if family == "dihedral":
        (n,) = _family_params(family, params, 1)
        if n < 3:
            raise PgaError("dihedral needs n >= 3")
        check_degree(n)
        rotation = _cycle(list(range(n)), n)
        reflection = Permutation([(n - i) % n for i in range(n)])
        return entry(n, [rotation, reflection])
    if family == "symmetric":
        (n,) = _family_params(family, params, 1)
        if n < 1:
            raise PgaError("symmetric needs n >= 1")
        check_degree(n)
        if n == 1:
            return entry(1, [])
        gens = [_cycle([0, 1], n)]
        if n > 2:
            gens.append(_cycle(list(range(n)), n))
        return entry(n, gens)
    if family == "alternating":
        (n,) = _family_params(family, params, 1)
        if n < 3:
            raise PgaError("alternating needs n >= 3")
        check_degree(n)
        three_cycle = _cycle([0, 1, 2], n)
        if n % 2 == 1:
            big = _cycle(list(range(n)), n)
        else:
            big = _cycle(list(range(1, n)), n)
        return entry(n, [three_cycle, big])
    if family == "elem_abelian":
        p, k = _family_params(family, params, 2)
        if k < 1:
            raise PgaError("elem_abelian needs a prime p and k >= 1")
        # p**k is at least p and at least 2**k, so testing both against the
        # cap first keeps a huge p from a long primality test and a huge k
        # from building a huge integer
        if p > caps.max_degree or k >= caps.max_degree.bit_length():
            raise PgaError(f"degree {p}**{k} exceeds the configured maximum {caps.max_degree}")
        if not is_prime(p):
            raise PgaError("elem_abelian needs a prime p and k >= 1")
        degree = p**k
        check_degree(degree)
        gens = []
        for i in range(k):
            step = p**i
            images = []
            for x in range(degree):
                digit = (x // step) % p
                images.append(x + step if digit < p - 1 else x - (p - 1) * step)
            gens.append(Permutation(images))
        return entry(degree, gens)
    if family == "frobenius":
        p, q = _family_params(family, params, 2)
        check_degree(p)  # before the primality test, which a huge p would stall
        if not is_prime(p) or p < 3:
            raise PgaError("frobenius needs an odd prime p")
        if q < 2 or (p - 1) % q != 0:
            raise PgaError(f"frobenius needs q >= 2 dividing p-1 = {p - 1}")
        a = pow(smallest_primitive_root(p), (p - 1) // q, p)
        translation = Permutation([(x + 1) % p for x in range(p)])
        multiplier = Permutation([(a * x) % p for x in range(p)])
        return entry(p, [translation, multiplier])
    raise PgaError(f"unknown family {family!r}")


def _family_params(family, params, want):
    if len(params) != want:
        raise PgaError(f"{family} takes {want} parameter(s), got {len(params)}")
    return params


def load_corpus(directory, caps: Caps = DEFAULT_CAPS) -> list:
    """Load every .grp file in a directory, sorted by entry name.

    Any parse error aborts the load naming the offending file; duplicate
    entry names are rejected.
    """
    root = Path(directory)
    if not root.is_dir():
        raise GroupFileError(f"corpus directory {root} does not exist")
    entries = []
    for path in sorted(root.glob("*.grp")):
        entries.append(read_group_file(path, caps.max_degree))
    by_name = {}
    for e in entries:
        if e.name in by_name:
            raise GroupFileError(
                f"duplicate group name {e.name!r} (also in {by_name[e.name].source})",
                source=e.source,
            )
        by_name[e.name] = e
    entries.sort(key=lambda e: e.name)
    return entries


def corpus_digest(entries) -> str:
    blob = "\n".join(serialize_entry(e) for e in sorted(entries, key=lambda e: e.name))
    return hashlib.sha256(blob.encode()).hexdigest()


class Report:
    """Check results plus the metadata needed to reproduce them."""

    __slots__ = ("metadata", "entries")

    def __init__(self, metadata: dict, entries: list):
        self.metadata = metadata
        self.entries = entries  # CheckResult records


def report_metadata(version: str, caps: Caps, entries) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": version,
        "caps": caps.as_dict(),
        "corpus_digest": corpus_digest(entries),
    }


# json.dumps with separators builds a new encoder on every call
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def render_report_lines(report: Report) -> list:
    lines = [_COMPACT.encode(report.metadata)]
    for r in sorted(report.entries, key=lambda r: (r.group, r.check_id)):
        record = {
            "group": r.group,
            "degree": r.degree,
            "order": str(r.order),
            "check": r.check_id,
            "status": r.status,
            "witness": r.witness,
        }
        lines.append(_COMPACT.encode(record))
    return lines


def write_report(report: Report, dest) -> None:
    """Write the line-delimited report to a path or file-like object."""
    text = "\n".join(render_report_lines(report)) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


def read_report(source) -> tuple:
    """Parse a report back into (metadata, list of record dicts)."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PgaError("empty report")
    metadata = json.loads(lines[0])
    records = [json.loads(ln) for ln in lines[1:]]
    return metadata, records
