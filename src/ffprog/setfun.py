"""Subsets of F_p and real-valued grid functions.

Random subsets come from numpy's default_rng (PCG64), which is the named,
seedable generator this package commits to; golden tests pin its outputs.
Subset text specs are either a file path (one residue per line) or the
literal ``random:<density>:<seed>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BadDensity
from .field import PrimeField


@dataclass(frozen=True)
class SubsetSpec:
    """A subset of F_p with sorted, de-duplicated members."""

    field: PrimeField
    members: tuple

    def __post_init__(self) -> None:
        p = self.field.p
        prev = -1
        for m in self.members:
            if not isinstance(m, int) or not 0 <= m < p:
                raise ValueError(f"member {m!r} outside [0, {p})")
            if m <= prev:
                raise ValueError("members must be strictly increasing")
            prev = m

    @classmethod
    def from_members(cls, field: PrimeField, members) -> "SubsetSpec":
        return cls(field, tuple(sorted({int(m) % field.p for m in members})))

    @classmethod
    def full(cls, field: PrimeField) -> "SubsetSpec":
        return cls(field, tuple(range(field.p)))

    @classmethod
    def empty(cls, field: PrimeField) -> "SubsetSpec":
        return cls(field, ())

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def density(self) -> float:
        return len(self.members) / self.field.p


@dataclass
class GridFunction:
    """A real function on F_p, backed by a float64 array of length p."""

    field: PrimeField
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.field.p,):
            raise ValueError(
                f"need {self.field.p} values, got shape {self.values.shape}"
            )

    def mean(self) -> float:
        return float(self.values.sum() / self.field.p)


def indicator(subset: SubsetSpec) -> GridFunction:
    v = np.zeros(subset.field.p, dtype=np.float64)
    if subset.members:
        v[list(subset.members)] = 1.0
    return GridFunction(subset.field, v)


def balance(subset: SubsetSpec) -> GridFunction:
    """The balanced indicator 1_A - |A|/p, exactly mean zero."""
    f = indicator(subset)
    f.values = f.values - len(subset.members) / subset.field.p
    return f


def l2_norm(f: GridFunction) -> float:
    """sqrt(E_x f(x)^2) with the normalized counting measure."""
    return float(np.sqrt(np.dot(f.values, f.values) / f.field.p))


def random_subset(field: PrimeField, density: float, seed: int) -> SubsetSpec:
    """Each residue joins independently with the given probability.

    Driven by numpy default_rng(seed): one uniform draw per residue,
    membership iff draw < density.  Density 0 and 1 give the empty and full
    set deterministically.
    """
    if not 0.0 <= density <= 1.0:
        raise BadDensity(f"density must lie in [0, 1]: got {density}")
    rng = np.random.default_rng(seed)
    draws = rng.random(field.p)
    members = np.flatnonzero(draws < density)
    return SubsetSpec(field, tuple(int(m) for m in members))


def parse_subset(spec: str, field: PrimeField) -> SubsetSpec:
    """Interpret a subset spec: ``random:<density>:<seed>`` or a file path."""
    s = spec.strip()
    if s.startswith("random:"):
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad random subset spec {spec!r}")
        return random_subset(field, float(parts[1]), int(parts[2]))
    if not os.path.exists(s):
        raise ValueError(f"subset file not found: {spec!r}")
    members = []
    with open(s, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                members.append(int(line))
    return SubsetSpec.from_members(field, members)
