#!/usr/bin/env python3
"""Regenerate the bundled corpus of .grp files from the builtin families.

The corpus spans cyclic, dihedral, symmetric, alternating, regular
elementary-abelian and Frobenius groups across degrees 3..12; the
degree-12 Mathieu group file is not generated and is left unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pga.corpus import builtin_family, serialize_entry

ROOT = Path(__file__).resolve().parents[1]

FAMILIES = [
    ("cyclic", [3]),
    ("cyclic", [4]),
    ("cyclic", [5]),
    ("cyclic", [6]),
    ("cyclic", [8]),
    ("cyclic", [9]),
    ("cyclic", [10]),
    ("cyclic", [12]),
    ("dihedral", [3]),
    ("dihedral", [4]),
    ("dihedral", [5]),
    ("dihedral", [6]),
    ("dihedral", [8]),
    ("dihedral", [10]),
    ("dihedral", [12]),
    ("symmetric", [3]),
    ("symmetric", [4]),
    ("symmetric", [5]),
    ("symmetric", [6]),
    ("symmetric", [7]),
    ("symmetric", [8]),
    ("alternating", [4]),
    ("alternating", [5]),
    ("alternating", [6]),
    ("alternating", [7]),
    ("alternating", [8]),
    ("elem_abelian", [2, 2]),
    ("elem_abelian", [2, 3]),
    ("elem_abelian", [3, 2]),
    ("frobenius", [5, 4]),
    ("frobenius", [7, 2]),
    ("frobenius", [7, 3]),
    ("frobenius", [7, 6]),
    ("frobenius", [11, 5]),
]


def main():
    out_dir = ROOT / "corpus"
    out_dir.mkdir(exist_ok=True)
    for family, params in FAMILIES:
        entry = builtin_family(family, params)
        path = out_dir / f"{entry.name}.grp"
        path.write_text(serialize_entry(entry), encoding="utf-8")
        print(f"wrote {path}  (degree {entry.declared_degree}, order {entry.group.order()})")


if __name__ == "__main__":
    main()
