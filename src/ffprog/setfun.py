"""Subsets of F_p and real-valued grid functions.

Random subsets come from numpy's default_rng (PCG64), which is the named,
seedable generator this package commits to; golden tests pin its outputs.
Subset text specs are either a file path (one residue per line) or the
literal ``random:<density>:<seed>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDensity
from .field import PrimeField
from .files import read_text


@dataclass(frozen=True, eq=False)
class SubsetSpec:
    """A subset of F_p as a read-only bool membership mask of length p."""

    field: PrimeField
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask)  # a private copy: the caller keeps theirs
        if mask.dtype != bool or mask.shape != (self.field.p,):
            raise ValueError(
                f"need a bool mask of shape ({self.field.p},), got"
                f" {mask.dtype} of shape {mask.shape}"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_members(cls, field: PrimeField, members) -> "SubsetSpec":
        mask = np.zeros(field.p, dtype=bool)
        mask[[int(m) % field.p for m in members]] = True
        return cls(field, mask)

    @classmethod
    def full(cls, field: PrimeField) -> "SubsetSpec":
        return cls(field, np.ones(field.p, dtype=bool))

    @classmethod
    def empty(cls, field: PrimeField) -> "SubsetSpec":
        return cls(field, np.zeros(field.p, dtype=bool))

    @property
    def members(self) -> tuple:
        """The members in increasing order."""
        return tuple(int(m) for m in np.flatnonzero(self.mask))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def density(self) -> float:
        return self.size / self.field.p


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
    return GridFunction(subset.field, subset.mask.astype(np.float64))


def balance(subset: SubsetSpec) -> GridFunction:
    """The balanced indicator 1_A - |A|/p, exactly mean zero."""
    return GridFunction(subset.field, subset.mask - subset.density)


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
    return SubsetSpec(field, rng.random(field.p) < density)


def parse_random_spec(spec: str) -> tuple[float, int]:
    """Density and seed of ``random:<density>:<seed>``; a ValueError that
    quotes the spec otherwise."""
    parts = spec.strip().split(":")
    try:
        if len(parts) != 3 or parts[0] != "random":
            raise ValueError
        density, seed = float(parts[1]), int(parts[2])
        if seed < 0:
            raise ValueError
        return density, seed
    except ValueError:
        raise ValueError(
            f"bad random subset spec {spec!r}: expected random:<density>:<seed>"
            " with seed >= 0"
        ) from None


def parse_subset(spec: str, field: PrimeField) -> SubsetSpec:
    """Interpret a subset spec: ``random:<density>:<seed>`` or a file path,
    one residue per line; a line that is not an integer is a ValueError that
    names the file and the line."""
    s = spec.strip()
    if s.startswith("random:"):
        return random_subset(field, *parse_random_spec(s))
    try:
        text = read_text(s)
    except OSError as exc:
        raise ValueError(f"cannot read subset file {s!r}: {exc.strerror}") from None
    members = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        residue = line.split("#", 1)[0].strip()
        if residue:
            try:
                members.append(int(residue))
            except ValueError as exc:
                raise ValueError(f"{s!r}:{lineno}: {exc}") from None
    return SubsetSpec.from_members(field, members)
