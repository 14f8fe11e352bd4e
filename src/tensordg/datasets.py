"""CSV serialization for grouped regression data.

File layout (header row required): one column per group axis, then the
response, then the feature columns. The writer names them g1..gq, y,
x1..xp; ingest reads other names when given the columns' roles. Header
names must be unique, and each column holds one role: a given name that
is empty, repeats within the group or feature columns, or is a group,
the response or a feature column at once is an error naming it. By
default the group columns are the g<number> columns in the order of
their number, which must run 1..q once each (g2,g1 reads as g1,g2;
g1,g3 and g1,g01 are errors). Group levels may be integer codes or
strings. A level is an integer when np.loadtxt's integer parser reads
it (``patterns._is_integer_text``: ASCII digits, an optional sign,
blanks around them), so 1_0 and non-ASCII digits are labels. A column
whose levels are all positive integers keeps those codes, mapped from
the file's spelling ({"01": 1}), and two spellings of one integer (1
and 01) are an error rather than one group; other levels are mapped to
1-based codes in order of first appearance and the mapping is returned
alongside the dataset. Blank lines are skipped, and a quoted field may
not span lines. Groups come out in sorted order, and rows keep their
file order within a group.

Both directions work on whole arrays. The writer formats each group as
one string, with floats written by ``repr`` so a write/ingest roundtrip
reproduces the exact binary values. Ingest parses the numeric columns
with one ``np.loadtxt`` call, so numeric cells follow numpy's parser. It
accepts what ``float()`` accepts except Python's underscore digit
grouping (``1_0``) and non-ASCII digits; those cells are errors that name
their line.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .patterns import _is_integer_text
from .regression import GroupedDataset

__all__ = ["IngestResult", "write_csv", "ingest_csv"]

# ``comments=None``: a '#' in a label is data, as it is to the csv module.
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


@dataclass(frozen=True)
class IngestResult:
    """Parsed grouped data plus the inferred group-space metadata."""

    dataset: GroupedDataset
    space: tuple
    mappings: tuple   # per group column: {original level: 1-based code}
    counts: dict      # group tuple -> sample count


def write_csv(path, ds):
    """Write a grouped dataset with the header g1..gq,y,x1..xp."""
    groups = sorted(ds.groups)
    if not groups:
        raise DimensionError("empty dataset")
    q, p = len(groups[0]), ds.p
    with open(path, "w", newline="") as handle:
        # every line ends in "\r\n", as csv.writer ends them
        handle.write(",".join([f"g{t}" for t in range(1, q + 1)] + ["y"]
                              + [f"x{j}" for j in range(1, p + 1)]) + "\r\n")
        for g in groups:
            X, y = ds.groups[g]
            prefix = "".join(f"{int(level)}," for level in g)
            handle.write("".join(
                prefix + ",".join(map(repr, row)) + "\r\n"
                for row in np.column_stack([y, X]).tolist()))


def _code_columns(raw, path, name):
    """Map one column of raw group levels (strings) to 1-based codes.

    Integer-coded columns (every level is an integer by
    ``patterns._is_integer_text`` and positive) keep their codes, mapped
    from the file's spelling ({"01": 1}); anything else is treated as
    labels and coded by first appearance. Two spellings of one integer
    ("1" and "01") raise DimensionError naming the group column ``name``
    and both spellings, rather than merging their rows into one group.
    """
    levels, first, inverse = np.unique(raw, return_index=True,
                                       return_inverse=True)
    levels = levels.tolist()
    ints = (list(map(int, levels)) if all(map(_is_integer_text, levels))
            else None)
    if ints and min(ints) >= 1:
        spelling = {}
        for level, code in zip(levels, ints):
            other = spelling.setdefault(code, level)
            if other != level:
                raise DimensionError(
                    f"{path}: group column {name} spells the code {code} "
                    f"as both {other!r} and {level!r}", where=name)
        return (np.array(ints)[inverse],
                {spelling[c]: c for c in sorted(spelling)})
    appearance = np.argsort(first)
    rank = np.empty(len(levels), dtype=np.int64)
    rank[appearance] = np.arange(1, len(levels) + 1)
    mapping = {levels[i]: code
               for code, i in enumerate(appearance.tolist(), start=1)}
    return rank[inverse], mapping


def _first_bad_line(body, cols):
    """Index of the first line of ``body`` whose ``cols`` numpy rejects.

    Rows parse independently, so bisection finds it with O(log n) parser
    calls over about n rows in total.
    """
    lo, hi = 0, len(body)   # body[:lo] parses; body[lo:hi] holds a bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(body[lo:mid], usecols=cols, **_LOADTXT)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _check_roles(path, group_cols, response_col, feature_cols):
    """Raise DimensionError naming the column when a column name is
    empty, repeats within the group or feature columns, or holds two of
    the roles group, response and feature."""
    roles = {}
    for role, names in (("group", group_cols), ("response", [response_col]),
                        ("feature", feature_cols or [])):
        for name in names:
            if not name:
                raise DimensionError(f"{path}: empty {role} column name",
                                     where=role)
            if name in roles:
                other = roles[name]
                raise DimensionError(
                    f"{path}: {role} column {name} is given twice"
                    if other == role else f"{path}: column {name} is both "
                    f"a {other} and a {role} column", where=name)
            roles[name] = role


def ingest_csv(path, group_cols=None, response_col=None, feature_cols=None):
    """Parse a grouped-data CSV into a dataset plus group-space metadata.

    Column roles are given by header names; when omitted they default to
    the writer's layout (g1..gq, then the response, then the rest). Each
    column holds one role: a given name that is empty, repeats within
    ``group_cols`` or ``feature_cols``, or holds two roles (group,
    response, feature) is a DimensionError naming it. The
    default group columns are the g<number> columns ordered by their
    number, which must be 1..q once each, else DimensionError names the
    columns; explicit ``group_cols`` keep the caller's order. Integer
    levels (``_code_columns``) keep their codes, mapped from the file's
    spelling; a group column that spells one integer code two ways is a
    DimensionError naming the column and both spellings.
    Returns an IngestResult with the dataset, the inferred space (max
    code per group axis), the per-axis level mappings, and per-group
    sample counts. Errors name the 1-based line of the file.
    """
    with open(path) as handle:
        lines = handle.readlines()
    numbers = [i for i, line in enumerate(lines, start=1) if line != "\n"]
    if not numbers:
        raise DimensionError(f"{path}: empty file")
    header = next(csv.reader([lines[numbers[0] - 1]]))
    numbers = numbers[1:]
    if not numbers:
        raise DimensionError(f"{path}: no data rows")
    body = [lines[i - 1] for i in numbers]
    dupes = sorted({name for name in header if header.count(name) > 1})
    if dupes:
        raise DimensionError(f"{path}: duplicate header names {dupes}")
    width = len(header)
    for line, number in zip(body, numbers):
        # Only a line with a quote or the wrong comma count can be ragged.
        if line.count(",") != width - 1 or '"' in line:
            fields = len(next(csv.reader([line])))
            if fields != width:
                raise DimensionError(f"{path}: row {number} has {fields} "
                                     f"fields, expected {width}")

    if group_cols is None:
        number = {name: int(name[1:]) for name in header
                  if name.startswith("g") and name[1:].isdecimal()}
        if not number:
            raise DimensionError(f"{path}: no g1..gq group columns found")
        if sorted(number.values()) != list(range(1, len(number) + 1)):
            raise DimensionError(
                f"{path}: group columns {list(number)} are not "
                f"g1..g{len(number)}, each once")
        group_cols = sorted(number, key=number.get)
    missing = [c for c in list(group_cols)
               + ([response_col] if response_col else [])
               + list(feature_cols or []) if c and c not in header]
    if missing:
        raise DimensionError(f"{path}: columns {missing} not in header")
    if response_col is None:
        after = [name for name in header if name not in group_cols]
        if not after:
            raise DimensionError(f"{path}: no response column")
        response_col = "y" if "y" in after else after[0]
    _check_roles(path, group_cols, response_col, feature_cols)
    if feature_cols is None:
        feature_cols = [name for name in header
                        if name not in group_cols and name != response_col]
    if not feature_cols:
        raise DimensionError(f"{path}: no feature columns")

    col_of = {name: j for j, name in enumerate(header)}
    cols = [col_of[name] for name in [response_col, *feature_cols]]
    try:
        values = np.loadtxt(body, usecols=cols, **_LOADTXT)
    except ValueError:
        k = _first_bad_line(body, cols)
        for j in cols:
            try:
                np.loadtxt(body[k:k + 1], usecols=[j], **_LOADTXT)
            except ValueError:
                cell = next(csv.reader(body[k:k + 1]))[j]
                raise DimensionError(
                    f"{path}: non-numeric value {cell!r} in column "
                    f"{header[j]}, row {numbers[k]}") from None
        raise

    raw = np.loadtxt(body, dtype=str,
                     usecols=[col_of[name] for name in group_cols],
                     **_LOADTXT)
    codes, mappings = zip(*(_code_columns(column, path, name)
                            for column, name in zip(raw.T, group_cols)))
    keys = np.array(codes)   # (q, rows)
    space = tuple(int(axis.max()) for axis in keys)
    # A stable sort on the codes keeps file order within each group.
    order = np.lexsort(keys[::-1])
    cuts = np.flatnonzero(np.diff(keys[:, order], axis=1).any(axis=0)) + 1
    ds = GroupedDataset({tuple(keys[:, rows[0]].tolist()):
                         (values[rows, 1:], values[rows, 0])
                         for rows in np.split(order, cuts)})
    counts = {g: y.size for g, (_, y) in ds.groups.items()}
    return IngestResult(ds, space, tuple(mappings), counts)
