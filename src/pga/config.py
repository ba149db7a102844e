"""Resource caps shared by the scanning and search code."""

from __future__ import annotations


class Caps:
    """Limits that turn runaway computations into explicit "skipped" outcomes.

    enumeration_cap   largest group order that full element scans accept
    lattice_cap       largest number of normal subgroups tracked per group
    closure_degree_cap  largest degree accepted by the 2-closure backtracker
    max_degree        largest degree accepted when loading or generating groups
    """

    __slots__ = ("enumeration_cap", "lattice_cap", "closure_degree_cap", "max_degree")

    def __init__(
        self,
        enumeration_cap: int = 1_000_000,
        lattice_cap: int = 512,
        closure_degree_cap: int = 32,
        max_degree: int = 64,
    ):
        self.enumeration_cap = enumeration_cap
        self.lattice_cap = lattice_cap
        self.closure_degree_cap = closure_degree_cap
        self.max_degree = max_degree
        for key, value in self.as_dict().items():
            if type(value) is not int or value < 1:
                raise ValueError(f"cap {key} must be an integer of at least 1, got {value!r}")

    def with_overrides(self, **kwargs) -> "Caps":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return Caps(**{**self.as_dict(), **updates}) if updates else self

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


DEFAULT_CAPS = Caps()
