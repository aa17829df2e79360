"""Grouped designs, group-model descriptions and datasets.

A grouped design records how observations are partitioned into groups and,
optionally, where each observation sits along a one-dimensional coordinate
(time, depth along a transect, ...).  Group models describe the within-group
correlation structure of the residuals; the three supported families share a
single free parameter each.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, DataError


class Family(str, Enum):
    """Within-group correlation family."""

    EXCHANGEABLE = "exchangeable"
    AR1 = "ar1"
    OU = "ou"


#: accepted spellings on the command line and in config-ish call sites
FAMILY_ALIASES = {
    "exchangeable": Family.EXCHANGEABLE,
    "exch": Family.EXCHANGEABLE,
    "ar1": Family.AR1,
    "ou": Family.OU,
}


def parse_family(name: str | Family) -> Family:
    if isinstance(name, Family):
        return name
    try:
        return FAMILY_ALIASES[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"unknown correlation family {name!r}") from None


def _whole(value, error, what: str) -> int:
    """``value`` as an int when it is an integer type; else raise ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _per_group(flat, offsets) -> tuple[tuple[float, ...], ...]:
    """Row-ordered values as one tuple of Python floats per group."""
    cut = map(slice, offsets[:-1].tolist(), offsets[1:].tolist())
    return tuple(map(tuple, map(flat.tolist().__getitem__, cut)))


@dataclass(frozen=True)
class GroupedDesign:
    """Partition of observations into groups, with optional positions.

    Parameters
    ----------
    group_sizes : tuple of int
        Number of observations in each group, in row order.
    positions : tuple of tuple of float, optional
        Per-group observation coordinates, finite and strictly increasing
        within each group.  Required by the OU family unless unit spacing
        is declared on the model.

    Built once, read-only: ``_flat_positions``, every row's position in
    row order (None without positions), which ``positions`` is read back
    from; ``offsets``, each group's first row, then the total size;
    ``pair_rows``, the later row of each within-group pair; ``gaps``, the
    position differences at those rows (unit gaps without positions);
    ``size_classes``, (size, number of groups) int pairs by size;
    ``_pair_classes``, float rows m - 1, count, count m (m - 1) for m > 1.
    Three private caches fill on first use: ``_ou_moments``, the OU
    series' gap moments, and ``_distinct_gaps``, the distinct gap values
    with their counts and the gap order that groups them (empty past 21
    values), both from `corr`, and ``_inversion_tables``, each family's
    distance-inversion start table, from `pcprior.DistanceFunction`.  None
    of them takes part in ``==``, ``hash`` or ``repr``.
    """

    group_sizes: tuple[int, ...]
    positions: tuple[tuple[float, ...], ...] | None = None
    offsets: NDArray = field(init=False, repr=False, compare=False)
    pair_rows: NDArray = field(init=False, repr=False, compare=False)
    gaps: NDArray = field(init=False, repr=False, compare=False)
    size_classes: tuple = field(init=False, repr=False, compare=False)
    _pair_classes: NDArray = field(init=False, repr=False, compare=False)
    _flat_positions: NDArray | None = field(init=False, repr=False,
                                            compare=False)
    _ou_moments: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)
    _distinct_gaps: tuple | None = field(default=None, init=False, repr=False,
                                         compare=False)
    _inversion_tables: dict = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if len(self.group_sizes) == 0:
            raise ConfigurationError("a design needs at least one group")
        sizes = tuple(_whole(m, ConfigurationError, "a group size")
                      for m in self.group_sizes)
        if any(m < 1 for m in sizes):
            raise ConfigurationError("group sizes must be positive")
        object.__setattr__(self, "group_sizes", sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        pair_rows = np.delete(np.arange(offsets[-1]), offsets[:-1])
        flat, gaps = None, np.ones(pair_rows.size)
        if self.positions is not None:
            groups = tuple(self.positions)
            if len(groups) != len(sizes):
                raise ConfigurationError(
                    "positions must list one coordinate tuple per group")
            lengths = np.fromiter(map(len, groups), np.intp, len(sizes))
            flat = np.fromiter(map(float, chain.from_iterable(groups)), float)
            # rows agree up to k, the first group of the wrong length
            k = np.append(np.flatnonzero(lengths != sizes), len(sizes))[0]
            bad = np.flatnonzero(~np.isfinite(flat[:offsets[k]]))
            message = "group {j}: position not finite"
            if not bad.size and k < len(sizes):
                bad = offsets[k:k + 1]
                message = "group {j} has {m} observations but {n} positions"
            elif not bad.size:
                gaps = flat[pair_rows] - flat[pair_rows - 1]
                bad = pair_rows[gaps <= 0]
                message = "positions in group {j} must be strictly increasing"
            if bad.size:
                j = np.searchsorted(offsets, bad[0], side="right") - 1
                raise ConfigurationError(
                    message.format(j=j, m=sizes[j], n=lengths[j]))
            object.__setattr__(self, "positions", _per_group(flat, offsets))
        distinct, counts = np.unique(sizes, return_counts=True)
        m, c = (v[distinct > 1, None] * 1.0 for v in (distinct, counts))
        for name, value in (
                ("offsets", offsets), ("pair_rows", pair_rows), ("gaps", gaps),
                ("size_classes", tuple(zip(distinct.tolist(), counts.tolist()))),
                ("_pair_classes", np.stack([m - 1.0, c, c * m * (m - 1.0)])),
                ("_flat_positions", flat)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def total_size(self) -> int:
        return int(self.offsets[-1])

    def spacings(self, group_index: int) -> NDArray:
        """Consecutive position gaps within one group (unit gaps if no positions)."""
        j = range(self.n_groups)[group_index]
        return self.gaps[self.offsets[j] - j:self.offsets[j + 1] - j - 1]

    def all_spacings(self) -> NDArray:
        """Consecutive gaps of every group concatenated (length total_size - n_groups)."""
        return self.gaps

    def group_slices(self) -> list[slice]:
        """Row slices of each group in a stacked observation vector."""
        bounds = self.offsets.tolist()
        return list(map(slice, bounds[:-1], bounds[1:]))


def balanced_design(n_groups: int, group_size: int,
                    unit_positions: bool = False) -> GroupedDesign:
    """Convenience constructor for n equally sized groups."""
    positions = (tuple(map(float, range(group_size))),) * n_groups
    return GroupedDesign(group_sizes=(group_size,) * n_groups,
                         positions=positions if unit_positions else None)


@dataclass(frozen=True)
class GroupModel:
    """A one-parameter within-group correlation model.

    The exchangeable and AR1 families are parameterized by a correlation
    rho in [0, 1); the OU family by a decay rate phi > 0 applied to the
    position gaps.  OU needs positions in the design unless
    ``assume_unit_spacing`` is set, which treats observations as equally
    spaced one unit apart.
    """

    family: Family
    assume_unit_spacing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "family", parse_family(self.family))

    @property
    def param_name(self) -> str:
        return "phi" if self.family is Family.OU else "rho"

    def check_design(self, design: GroupedDesign) -> None:
        """Raise if the design lacks what this family needs."""
        if (self.family is Family.OU and design.positions is None
                and not self.assume_unit_spacing):
            raise ConfigurationError(
                "the OU family needs per-group positions, or an explicit "
                "unit-spacing declaration"
            )


@dataclass(frozen=True)
class Dataset:
    """Stacked observations ordered by group, with fixed-effect covariates.

    ``X`` always carries the intercept as its first column of ones;
    ``column_names`` names the columns of ``X``; ``y`` and ``X`` are held
    as read-only copies.
    """

    y: NDArray
    X: NDArray
    design: GroupedDesign
    column_names: tuple[str, ...] = field(default=("intercept",))
    _digest: str | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        X = np.array(self.X, dtype=float)
        if y.ndim != 1:
            raise DataError("y must be a one-dimensional vector")
        if X.ndim != 2 or X.shape[0] != y.size:
            raise DataError("X must be a matrix with one row per observation")
        if X.shape[1] == 0:
            raise DataError("X must hold at least the intercept column")
        if y.size != self.design.total_size:
            raise DataError(
                f"{y.size} observations but the design describes "
                f"{self.design.total_size}"
            )
        if X.shape[1] != len(self.column_names):
            raise DataError("column_names must name every column of X")
        if not np.allclose(X[:, 0], 1.0):
            raise DataError("the first column of X must be the intercept (all ones)")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise DataError("y and X must be finite")
        for name, value in (("y", y), ("X", X)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def n_coef(self) -> int:
        return self.X.shape[1]

    def fingerprint(self) -> str:
        """Hash identifying the observed data (y and X).

        Deliberately excludes the grouping and the row order: evidence
        comparisons are valid across different grouping factors of the
        same observations, and regrouping permutes the rows.  Rows are
        brought into a canonical order before hashing, once per dataset.
        """
        if self._digest is None:
            order = np.lexsort(tuple(self.X.T[::-1]) + (self.y,))
            h = hashlib.sha256()
            h.update(self.y[order].tobytes())
            h.update(self.X[order].tobytes())
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest
