"""Row-at-a-time CSV writer and ingest loop, kept as an independent reference.

The package writes and parses dataset CSVs on whole arrays (one string
per group, one ``np.loadtxt`` parse); tests compare it against these
plain ``csv``-module loops, which write ``repr`` per float and parse
``float()`` per cell. Both return the package's own types.
"""

import csv
import re

import numpy as np

from tensordg import DimensionError, GroupedDataset, IngestResult


def write_csv_rows(path, ds):
    """Write ``ds`` one ``csv.writer`` row per sample, groups sorted."""
    groups = sorted(ds.groups)
    q, p = len(groups[0]), ds.p
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"g{t}" for t in range(1, q + 1)] + ["y"]
                        + [f"x{j}" for j in range(1, p + 1)])
        for g in groups:
            X, y = ds.groups[g]
            for i in range(y.size):
                writer.writerow([str(int(level)) for level in g]
                                + [repr(float(y[i]))]
                                + [repr(float(v)) for v in X[i]])


def _code_column(raw, name):
    """Positive integers keep their codes, mapped from the file's spelling;
    labels code by first appearance. A level is an integer when it is
    ASCII digits after an optional sign, with blanks around them, as
    np.loadtxt reads integers. Two spellings of one code ("3" and "03")
    raise DimensionError naming the column ``name``."""
    if all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", v) for v in raw):
        codes = [int(v) for v in raw]
        if all(c >= 1 for c in codes):
            spelling = {}
            for v, c in zip(raw, codes):
                if spelling.setdefault(c, v) != v:
                    raise DimensionError(f"group column {name} spells the "
                                         f"code {c} two ways", where=name)
            return codes, dict(sorted(zip(raw, codes), key=lambda lc: lc[1]))
    mapping = {}
    codes = []
    for v in raw:
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        codes.append(mapping[v])
    return codes, mapping


def ingest_csv_rows(path, group_cols=None, response_col=None,
                    feature_cols=None):
    """Parse a well-formed dataset CSV row by row into an IngestResult.

    Column roles default as in ``tensordg.ingest_csv``. Blank lines are
    skipped; rows are bucketed per group in file order and groups come
    out sorted. Malformed files are not diagnosed here, but a group
    column that spells one integer code two ways raises DimensionError
    naming it, as ``ingest_csv`` does.
    """
    with open(path, newline="") as handle:
        table = [row for row in csv.reader(handle) if row]
    header, rows = table[0], table[1:]
    if group_cols is None:
        group_cols = [name for name in header
                      if name.startswith("g") and name[1:].isdigit()]
    if response_col is None:
        after = [name for name in header if name not in group_cols]
        response_col = "y" if "y" in after else after[0]
    if feature_cols is None:
        feature_cols = [name for name in header
                        if name not in group_cols and name != response_col]
    col_of = {name: header.index(name) for name in header}
    coded = [_code_column([row[col_of[name]] for row in rows], name)
             for name in group_cols]
    bucket_x, bucket_y = {}, {}
    for i, row in enumerate(rows):
        g = tuple(codes[i] for codes, _ in coded)
        bucket_x.setdefault(g, []).append(
            [float(row[col_of[name]]) for name in feature_cols])
        bucket_y.setdefault(g, []).append(float(row[col_of[response_col]]))
    ds = GroupedDataset({g: (np.array(bucket_x[g]), np.array(bucket_y[g]))
                         for g in sorted(bucket_x)})
    counts = {g: y.size for g, (_, y) in ds.groups.items()}
    return IngestResult(ds, tuple(max(codes) for codes, _ in coded),
                        tuple(mapping for _, mapping in coded), counts)
