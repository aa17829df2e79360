"""Reading and writing datasets, fit results, and prior grids.

Formats are deliberately plain: CSV with a header for tabular data
(UTF-8, LF, '.' decimal separator, 17 significant digits so floats
round-trip exactly) and JSON for fit summaries.  Group labels in a
dataset file can be arbitrary strings; they are mapped to indices in
order of first appearance, which preserves the on-disk ordering of
transects or campaigns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import count
from types import SimpleNamespace

import numpy as np

from .design import Dataset, GroupedDesign, _per_group
from .errors import ParseError
from .pcprior import PriorGrid

__all__ = [
    "read_table",
    "table_design",
    "table_numbers",
    "read_dataset",
    "write_dataset",
    "write_fit",
    "read_fit",
    "write_grid",
    "read_grid",
]

FIT_KEYS = ("log_mlik", "rho", "sigma2", "beta", "diagnostics")
GRID_HEADER = ("param", "distance", "density", "cdf")
#: most rows of a grid that `write_grid` formats in one call
_GRID_BLOCK = 4096


def _parse_cell(text, row, column):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row}, column {column!r}: not a number: {text!r}") from None


@dataclass(frozen=True)
class CsvTable:
    """A CSV file parsed once: its header and its data rows as columns.

    ``columns[k]`` holds the text cells under ``header[k]``; ``line_nums``
    gives the file line that ends each data row, for error messages.
    Blank lines are skipped.
    """

    path: str
    header: tuple[str, ...]
    columns: tuple[tuple[str, ...], ...]
    line_nums: tuple[int, ...]

    def column(self, name):
        """The cells of the column called ``name``."""
        if name not in self.header:
            raise ParseError(f"{self.path}: missing column {name!r}")
        return self.columns[self.header.index(name)]


def read_table(path):
    """Parse a CSV file with a header row into a `CsvTable`.

    Column names must be distinct, and every data row must have as many
    fields as the header.  A leading UTF-8 byte-order mark, as spreadsheet
    exports write, is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        for k, name in enumerate(header):
            if name in header[:k]:
                raise ParseError(f"{path}: header repeats column {name!r}")
        rows, line_nums = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {reader.line_num}: expected {len(header)} fields, "
                    f"got {len(row)}")
            rows.append(row)
            line_nums.append(reader.line_num)
    columns = tuple(zip(*rows)) if rows else ((),) * len(header)
    return CsvTable(str(path), tuple(header), columns, tuple(line_nums))


def _float_columns(table, names):
    """The named columns as lists of floats.

    On a bad cell, names the first one in file order, row by row and
    within a row in the order of ``names``.
    """
    cells = [table.column(name) for name in names]
    try:
        return [list(map(float, col)) for col in cells]
    except ValueError:
        for num, row in zip(table.line_nums, zip(*cells)):
            for name, text in zip(names, row):
                _parse_cell(text, num, name)
        raise


def table_design(table, group_column="group", pos_column=None):
    """The `GroupedDesign` of a parsed table, and its row order.

    Groups are numbered by first appearance.  With ``pos_column``, the
    only column converted to numbers, rows are sorted by position within
    each group, and positions must be finite and distinct in a group.
    The row order indexes the table's rows, group by group.
    """
    pos = (None if pos_column is None
           else np.array(_float_columns(table, [pos_column])[0]))
    if not table.line_nums:
        raise ParseError(f"{table.path}: no data rows")
    if pos is not None and not np.isfinite(pos).all():
        i = int(np.argmin(np.isfinite(pos)))
        raise ParseError(f"row {table.line_nums[i]}, column {pos_column!r}: "
                         f"position {float(pos[i])!r} is not finite")
    labels = table.column(group_column)
    number = dict(zip(dict.fromkeys(labels), count()))
    rank = np.fromiter(map(number.__getitem__, labels), np.intp, len(labels))
    sizes = tuple(np.bincount(rank).tolist())
    if pos is None:
        return GroupedDesign(sizes), np.lexsort((rank,))
    order = np.lexsort((pos, rank))
    flat = pos[order]
    dup = np.flatnonzero((np.diff(rank[order]) == 0) & (np.diff(flat) <= 0))
    if dup.size:
        i = order[dup[0] + 1]
        raise ParseError(f"row {table.line_nums[i]}, column {pos_column!r}: "
                         f"position {float(pos[i])!r} duplicates one in "
                         f"group {labels[i]!r}")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return GroupedDesign(sizes, _per_group(flat, offsets)), order


def table_numbers(table, covariate_names=()):
    """y and X = [1, covariates] of a parsed table, in file order.

    Only y and the named covariate columns are converted to numbers.
    """
    y, *covs = _float_columns(table, ["y", *covariate_names])
    return np.array(y), np.column_stack([np.ones(len(y)), *covs])


def read_dataset(path, covariate_names=(), group_column="group",
                 pos_column=None):
    """Read a dataset CSV into a `Dataset`.

    Parameters
    ----------
    path : str or path-like
        CSV file with a header row.  A `y` column and the group column
        are required.
    covariate_names : sequence of str
        Columns to use as covariates, in this order, after the
        intercept.  Other columns are ignored.
    group_column : str
        Column holding the group labels.
    pos_column : str, optional
        Column holding within-group coordinates.  When given, rows are
        sorted by position within each group and positions must be
        finite and distinct within a group.

    Returns
    -------
    Dataset
        Rows ordered by (group first appearance, position or file
        order), with an intercept column prepended to the covariates.
        The design is built first, so its errors precede those of the
        numbers.
    """
    table, covariate_names = read_table(path), tuple(covariate_names)
    design, order = table_design(table, group_column, pos_column)
    y, X = table_numbers(table, covariate_names)
    return Dataset(y=y[order], X=X[order], design=design,
                   column_names=("intercept",) + covariate_names)


def write_dataset(dataset, path, group_labels=None):
    """Write a dataset to CSV; `read_dataset` recovers it exactly.

    Groups are labeled 1..n unless `group_labels` supplies strings.
    A `pos` column is written only when the design carries positions.
    """
    design = dataset.design
    if group_labels is None:
        group_labels = [str(j + 1) for j in range(design.n_groups)]
    columns = [dataset.y.tolist(), *dataset.X[:, 1:].T.tolist()]
    header = ["y", "group", *dataset.column_names[1:]]
    if design.positions is not None:
        columns.insert(1, design._flat_positions.tolist())
        header.insert(2, "pos")
    rows = list(zip(*columns))
    # the csv module renders each group's row format once (writerow returns
    # what write returns: the line); it quotes a field for the terminator's
    # characters only, so a row with a carriage return is quoted in full
    plain, quoted = (csv.writer(SimpleNamespace(write=str), quoting=q,
                                lineterminator="\n")
                     for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write((quoted if any("\r" in c for c in header) else plain)
                 .writerow(header))
        for j, s in enumerate(design.group_slices()):
            label = group_labels[j]
            fmt = (quoted if "\r" in label else plain).writerow(
                ["%.17g", label.replace("%", "%%")]
                + ["%.17g"] * (len(columns) - 1))
            fh.writelines(map(fmt.__mod__, rows[s]))


def write_fit(fit, path):
    """Serialize a fit as JSON with exactly the documented keys."""
    payload = fit.to_json_dict() if hasattr(fit, "to_json_dict") else dict(fit)
    if tuple(payload) != FIT_KEYS:
        raise ParseError(f"fit payload must have keys {FIT_KEYS}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_fit(path):
    """Read a fit JSON written by `write_fit`; rejects stray keys."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or tuple(payload) != FIT_KEYS:
        raise ParseError(
            f"{path}: expected exactly the keys {FIT_KEYS}")
    return payload


def write_grid(grid, path):
    """Write a prior grid as CSV with header param,distance,density,cdf.

    The body is formatted by one ``%`` per block of at most `_GRID_BLOCK`
    rows, on the block's columns interleaved row by row, so memory stays
    bounded on large grids.
    """
    rows = np.column_stack([getattr(grid, c) for c in GRID_HEADER])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(GRID_HEADER)
        # no %.17g field needs quoting, so these are csv.writer's bytes
        for a in range(0, len(rows), _GRID_BLOCK):
            block = rows[a:a + _GRID_BLOCK]
            fh.write(("%.17g,%.17g,%.17g,%.17g\n" * len(block))
                     % tuple(block.ravel().tolist()))


def read_grid(path):
    """Read a grid CSV written by `write_grid`."""
    table = read_table(path)
    if table.header != GRID_HEADER:
        raise ParseError(f"{path}: expected header {','.join(GRID_HEADER)}")
    return PriorGrid(*map(np.array, _float_columns(table, GRID_HEADER)))
