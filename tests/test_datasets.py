"""Tests for CSV writing and ingestion."""

import csv
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensordg import (DimensionError, GroupedDataset, NonFiniteError,
                      ScenarioConfig, ingest_csv, make_scenario, write_csv)

from csv_reference import ingest_csv_rows, write_csv_rows


def test_ingest_small_file(tmp_path):
    """Four rows over two groups -> two groups of two rows."""
    path = tmp_path / "small.csv"
    path.write_text(
        "g1,y,x1,x2\n"
        "1,0.5,1.0,2.0\n"
        "1,0.25,3.0,4.0\n"
        "2,1.5,5.0,6.0\n"
        "2,2.5,7.0,8.0\n")
    res = ingest_csv(path)
    assert res.space == (2,)
    assert res.counts == {(1,): 2, (2,): 2}
    X1, y1 = res.dataset.groups[(1,)]
    assert np.array_equal(X1, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(y1, [0.5, 0.25])


def test_ingest_string_levels_first_appearance(tmp_path):
    """String levels code, in first-appearance order, to 1.."""
    path = tmp_path / "coded.csv"
    path.write_text(
        "g1,g2,y,x1\n"
        "M,young,1.0,0.5\n"
        "F,young,2.0,0.25\n"
        "M,old,3.0,0.125\n")
    res = ingest_csv(path)
    assert res.mappings[0] == {"M": 1, "F": 2}
    assert res.mappings[1] == {"young": 1, "old": 2}
    assert res.space == (2, 2)
    assert set(res.dataset.groups) == {(1, 1), (2, 1), (1, 2)}


def test_ingest_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DimensionError, match="empty"):
        ingest_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("g1,y,x1\n1,2.0,3.0\n1,2.0\n")
    with pytest.raises(DimensionError, match="row 3"):
        ingest_csv(ragged)

    # Errors name the file line, counting the blank lines above it.
    ragged.write_text("g1,y,x1\n\n1,2.0,3.0\n1,2.0\n")
    with pytest.raises(DimensionError, match="row 4 has 2 fields"):
        ingest_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("g1,y,x1\n1,2.0,apple\n")
    with pytest.raises(DimensionError, match="non-numeric"):
        ingest_csv(bad)
    bad.write_text("g1,y,x1\n1,2.0,3.0\n\n\n1,2.0,apple\n")
    with pytest.raises(DimensionError,
                       match="'apple' in column x1, row 5"):
        ingest_csv(bad)

    noresp = tmp_path / "noresp.csv"
    noresp.write_text("g1,y\n1,2.0\n")
    with pytest.raises(DimensionError, match="feature"):
        ingest_csv(noresp)


def test_ingest_rejects_duplicate_header_names(tmp_path):
    """Two columns named x would map to the first; the file is refused."""
    path = tmp_path / "dupe.csv"
    path.write_text("g1,y,x,x\n1,1.0,2.0,3.0\n1,2.0,4.0,5.0\n")
    with pytest.raises(DimensionError, match=r"duplicate header.*'x'"):
        ingest_csv(path)


@pytest.mark.parametrize("one, other", [("1", "01"), ("2", "+2")])
def test_ingest_rejects_two_spellings_of_one_code(tmp_path, one, other):
    """Two spellings of one integer code named one group, and the
    mapping dropped one of them; now the file is refused, naming the
    column and both spellings."""
    path = tmp_path / "spelled.csv"
    path.write_text(f"g1,y,x1\n{one},0.5,1.0\n{other},0.7,2.0\n"
                    "3,0.1,3.0\n")
    with pytest.raises(DimensionError) as info:
        ingest_csv(path)
    message = str(info.value)
    assert "group column g1" in message and info.value.where == "g1"
    assert repr(one) in message and repr(other) in message


FOUR_ROWS = ("g1,g2,y,x1,x2\n1,1,0.5,1.0,2.0\n1,2,0.7,2.0,1.0\n"
             "2,1,0.1,3.0,0.5\n2,2,0.2,1.5,0.1\n")


@pytest.mark.parametrize("roles, message, where", [
    (dict(group_cols=["g1", "g1"]), "group column g1 is given twice", "g1"),
    (dict(feature_cols=["x1", "x1"]), "feature column x1 is given twice",
     "x1"),
    (dict(response_col="g1"), "column g1 is both a group and a response",
     "g1"),
    (dict(feature_cols=["y", "x1"]),
     "column y is both a response and a feature", "y"),
    (dict(feature_cols=["g2", "x1"]),
     "column g2 is both a group and a feature", "g2"),
    (dict(group_cols=[""]), "empty group column name", "group"),
    (dict(feature_cols=["x1", ""]), "empty feature column name", "feature"),
    (dict(response_col=""), "empty response column name", "response"),
])
def test_ingest_gives_each_column_one_role(tmp_path, roles, message, where):
    """An empty column name, a name given twice within the group or
    feature columns, or a column with two roles is refused by name; they
    made g2 a feature of a 2x2 space, a group column the response, y its
    own regressor, or ended in a KeyError."""
    path = tmp_path / "four.csv"
    path.write_text(FOUR_ROWS)
    with pytest.raises(DimensionError, match=message) as info:
        ingest_csv(path, **roles)
    assert info.value.where == where


def test_ingest_reads_a_non_group_g_column_as_a_feature(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_ROWS)
    res = ingest_csv(path, group_cols=["g1"], feature_cols=["g2", "x1"])
    assert res.space == (2,) and res.counts == {(1,): 2, (2,): 2}
    assert np.array_equal(res.dataset.groups[(1,)][0],
                          [[1.0, 1.0], [2.0, 2.0]])


@pytest.mark.parametrize("levels, space, mapping, groups", [
    # int() reads these as 10 and 3; np.loadtxt does not
    (("1_0", "2", "1_0"), (2,), {"1_0": 1, "2": 2}, [(1,), (2,)]),
    (("\u0663", "2", "\u0663"), (2,), {"\u0663": 1, "2": 2}, [(1,), (2,)]),
    (("1.0", "2", "1.0"), (2,), {"1.0": 1, "2": 2}, [(1,), (2,)]),
    # integers keep their codes, mapped from the file's spelling
    (("01", "02", "01"), (2,), {"01": 1, "02": 2}, [(1,), (2,)]),
    (("+2", " 4 ", "+2"), (4,), {"+2": 2, " 4 ": 4}, [(2,), (4,)]),
])
def test_ingest_reads_integer_levels_as_numpy_does(tmp_path, levels, space,
                                                   mapping, groups):
    path = tmp_path / "levels.csv"
    path.write_text("g1,y,x1\n" + "".join(
        f"{level},0.5,{k}.0\n" for k, level in enumerate(levels)),
        encoding="utf-8")
    res = ingest_csv(path)
    assert res.space == space
    assert res.mappings == (mapping,)
    assert list(res.mappings[0]) == list(mapping)
    assert list(res.dataset.groups) == groups
    assert res.counts[groups[0]] == 2


def test_ingest_orders_default_group_columns_by_number(tmp_path):
    """A g2,g1 header reads as its g1,g2 twin: the same dataset, space,
    mappings and counts, with the axes in the order of their number."""
    rows = [("1", "north", 0.5, 1.0), ("3", "south", 0.25, 2.0),
            ("2", "north", 1.5, 3.0), ("3", "north", 2.5, 4.0)]
    ordered, swapped = tmp_path / "ordered.csv", tmp_path / "swapped.csv"
    ordered.write_text("g1,g2,y,x1\n" + "".join(
        f"{a},{b},{y},{x}\n" for a, b, y, x in rows))
    swapped.write_text("g2,g1,y,x1\n" + "".join(
        f"{b},{a},{y},{x}\n" for a, b, y, x in rows))
    want, got = ingest_csv(ordered), ingest_csv(swapped)
    assert got.space == want.space == (3, 2)
    assert got.mappings == want.mappings
    assert got.counts == want.counts
    assert list(got.dataset.groups) == list(want.dataset.groups)
    for g, (X, y) in want.dataset.groups.items():
        assert np.array_equal(got.dataset.groups[g][0], X)
        assert np.array_equal(got.dataset.groups[g][1], y)
    # explicit group columns keep the caller's order
    assert ingest_csv(ordered, group_cols=["g2", "g1"]).space == (2, 3)


@pytest.mark.parametrize("header", ["g1,g3", "g1,g01", "g2,g3"])
def test_ingest_rejects_misnumbered_group_columns(tmp_path, header):
    path = tmp_path / "numbered.csv"
    path.write_text(f"{header},y,x1\n1,1,0.5,1.0\n")
    names = header.split(",")
    with pytest.raises(DimensionError,
                       match=re.escape(f"group columns {names} are not "
                                       "g1..g2, each once")):
        ingest_csv(path)


def test_ingest_explicit_schema(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text(
        "region,outcome,age,income\n"
        "north,1.0,30,50\n"
        "south,2.0,40,60\n")
    res = ingest_csv(path, group_cols=["region"], response_col="outcome",
                     feature_cols=["age", "income"])
    assert res.space == (2,)
    assert np.array_equal(res.dataset.groups[(1,)][0], [[30.0, 50.0]])


def test_roundtrip_exact(tmp_path):
    """simulate -> write -> ingest reproduces the dataset
    bit for bit."""
    cfg = ScenarioConfig(q=2, p=5, group_dims=(3, 3), ranks=(2, 2, 2),
                         body_sizes=(2, 2), arm_sizes=(2, 2), n=7,
                         n_target=4, seed=11)
    scenario = make_scenario(cfg, rep=0)
    path = tmp_path / "round.csv"
    write_csv(path, scenario.train)
    res = ingest_csv(path)
    assert res.space == (3, 3)
    assert set(res.dataset.groups) == set(scenario.train.groups)
    for g, (X, y) in scenario.train.groups.items():
        X2, y2 = res.dataset.groups[g]
        assert np.array_equal(X, X2)
        assert np.array_equal(y, y2)


# Finite doubles, with the edges of the format drawn often: signed zero,
# the smallest subnormal and values near the largest double.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.79e308,
                     -1.79e308, 1.7976931348623157e308]))


@st.composite
def grouped_datasets(draw):
    """q from 1 to 3, p from 1 to 8, 1 to 4 groups of unequal n >= 1."""
    q, p = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    keys = draw(st.lists(st.tuples(*[st.integers(1, 12)] * q),
                         min_size=1, max_size=4, unique=True))
    groups = {}
    for g in keys:
        n = draw(st.integers(1, 5))
        cells = np.array(draw(st.lists(FLOATS, min_size=n * (p + 1),
                                       max_size=n * (p + 1))))
        block = cells.reshape(n, p + 1)
        groups[g] = (block[:, 1:], block[:, 0])
    return GroupedDataset(groups)


def assert_same_ingest(got, want):
    """Bit-identical arrays, same group order, mappings, counts, space."""
    assert got.space == want.space
    assert [list(m.items()) for m in got.mappings] == \
        [list(m.items()) for m in want.mappings]
    assert got.counts == want.counts
    assert list(got.dataset.groups) == list(want.dataset.groups)
    for g, (X, y) in want.dataset.groups.items():
        X2, y2 = got.dataset.groups[g]
        assert X2.shape == X.shape and X2.tobytes() == X.tobytes()
        assert y2.shape == y.shape and y2.tobytes() == y.tobytes()


def write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@given(ds=grouped_datasets(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_write_and_ingest_match_row_reference(ds, data):
    """The array writer is byte-identical to the row writer; ingest of a
    file with groups interleaved is bit-identical to the row loop."""
    with tempfile.TemporaryDirectory() as tmp:
        want, got = os.path.join(tmp, "ref.csv"), os.path.join(tmp, "new.csv")
        write_csv_rows(want, ds)
        write_csv(got, ds)
        with open(want, "rb") as a, open(got, "rb") as b:
            assert a.read() == b.read()
        assert_same_ingest(ingest_csv(got), ingest_csv_rows(want))

        rows = [[str(level) for level in g] + [repr(v) for v in row]
                for g, (X, y) in ds.groups.items()
                for row in np.column_stack([y, X]).tolist()]
        rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))))]
        q = len(next(iter(ds.groups)))
        header = ([f"g{t}" for t in range(1, q + 1)] + ["y"]
                  + [f"x{j}" for j in range(1, ds.p + 1)])
        path = os.path.join(tmp, "shuffled.csv")
        write_rows(path, header, rows)
        assert_same_ingest(ingest_csv(path), ingest_csv_rows(path))


# Labels that need quoting (comma, quote), carry spaces or a '#', or look
# like integers, so both the label and the integer coding rule are hit.
LABELS = st.text(alphabet="ab,\"# 0123-é", max_size=4)


def ingest_or_error(ingest, path):
    try:
        return ingest(path)
    except DimensionError as err:
        return err


# Rows of q = 1 or 2 label levels, a response and a feature.
LABEL_ROWS = st.integers(1, 2).flatmap(lambda q: st.lists(
    st.tuples(st.lists(LABELS, min_size=q, max_size=q), FLOATS, FLOATS),
    min_size=1, max_size=12))


def ingest_or_error(ingest, path):
    try:
        return ingest(path)
    except DimensionError as err:
        return err


@given(rows=LABEL_ROWS)
@settings(max_examples=80, deadline=None)
@example(rows=[(["3"], 0.5, 1.5), (["03"], 0.5, 1.5)])
@example(rows=[(["1"], 0.5, 1.5), (["1 "], 0.5, 1.5)])
def test_ingest_string_labels_match_row_reference(rows):
    """Both ingests refuse the same files, naming the same column (two
    spellings of one integer code), and read the others alike."""
    q = len(rows[0][0])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.csv")
        write_rows(path, [f"g{t}" for t in range(1, q + 1)] + ["y", "x1"],
                   [levels + [repr(y), repr(x)] for levels, y, x in rows])
        got = ingest_or_error(ingest_csv, path)
        want = ingest_or_error(ingest_csv_rows, path)
    if isinstance(want, DimensionError) or isinstance(got, DimensionError):
        assert type(got) is type(want), (got, want)
        assert got.where == want.where
    else:
        assert_same_ingest(got, want)


def test_ingest_quoted_label_and_permuted_schema(tmp_path):
    """A label with a comma in it, and an explicit schema whose columns are
    named in an order unlike the file's, parse as the row loop does."""
    path = tmp_path / "survey.csv"
    write_rows(path, ["income", "region", "age", "outcome", "cohort"],
               [["50", "north, upper", "30", "1.5", "b"],
                ["60", "south", "40", "2.5", "a"],
                ["70", "north, upper", "35", "-0.0", "a"],
                ["80", "south", "45", "3.5", "b"]])
    schema = dict(group_cols=["cohort", "region"], response_col="outcome",
                  feature_cols=["age", "income"])
    res = ingest_csv(path, **schema)
    assert_same_ingest(res, ingest_csv_rows(path, **schema))
    assert res.mappings == ({"b": 1, "a": 2}, {"north, upper": 1, "south": 2})
    assert np.array_equal(res.dataset.groups[(1, 1)][0], [[30.0, 50.0]])


@given(ds=grouped_datasets(), data=st.data(),
       token=st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999",
                              "apple", "", "1_0", "0x1p3", "1.5.2"]))
@settings(max_examples=80, deadline=None)
def test_ingest_bad_cell_fuzz(ds, data, token):
    """A nan or inf cell is a NonFiniteError naming its group; a cell numpy
    cannot parse is a DimensionError naming its column and file line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        write_csv(path, ds)
        with open(path, newline="") as handle:
            lines = handle.read().split("\r\n")[:-1]
        row = data.draw(st.integers(1, len(lines) - 1))
        header = lines[0].split(",")
        q = len(header) - ds.p - 1
        col = data.draw(st.integers(q, len(header) - 1))
        cells = lines[row].split(",")
        group = tuple(int(c) for c in cells[:q])
        cells[col] = token
        lines[row] = ",".join(cells)
        blanks = data.draw(st.integers(0, 3))
        lines[1:1] = [""] * blanks
        with open(path, "w", newline="") as handle:
            handle.write("\r\n".join(lines) + "\r\n")

        if token in ("nan", "inf", "-inf", "NaN", "1e999"):
            with pytest.raises(NonFiniteError,
                               match=re.escape(str(group))) as info:
                ingest_csv(path)
            assert info.value.where == group
        else:
            line = row + blanks + 1
            with pytest.raises(DimensionError, match=re.escape(
                    f"{token!r} in column {header[col]}, row {line}")):
                ingest_csv(path)
