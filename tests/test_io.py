"""File formats: exact round trips and parse errors that name the cell."""

import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import property_examples
from grouppc import (
    Dataset,
    Family,
    GroupModel,
    GroupedDesign,
    GridConfig,
    HyperPriors,
    PCPrior,
    ParseError,
    PriorGrid,
    SimConfig,
    balanced_design,
    density_grid,
    log_marginal_likelihood,
    simulate_dataset,
    solve_psi,
)
from grouppc import io

EXCH = GroupModel(Family.EXCHANGEABLE)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def test_dataset_round_trip_exact(tmp_path):
    cfg = SimConfig(design=balanced_design(6, 50), model=EXCH, param=0.4,
                    beta=(0.5, 1.0, -2.0), seed=10)
    ds = simulate_dataset(cfg)
    path = tmp_path / "data.csv"
    io.write_dataset(ds, path)
    back = io.read_dataset(path, covariate_names=("x1", "x2"))
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.X, ds.X)
    assert back.design.group_sizes == (50,) * 6
    assert back.fingerprint() == ds.fingerprint()


def test_dataset_round_trip_with_positions(tmp_path):
    d = GroupedDesign(group_sizes=(3, 4),
                      positions=((0.0, 1.5, 4.0), (2.0, 2.5, 3.25, 7.0)))
    ds = simulate_dataset(SimConfig(design=d, model=GroupModel(Family.OU),
                                    param=0.8, seed=9))
    path = tmp_path / "ou.csv"
    io.write_dataset(ds, path, group_labels=["north", "south"])
    back = io.read_dataset(path, pos_column="pos")
    assert back.design.positions == d.positions
    assert np.array_equal(back.y, ds.y)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


#: any finite double; positions stay below 1e300 in magnitude so that the
#: design's gaps between them do not overflow
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITION = st.floats(min_value=-1e300, max_value=1e300)
LABEL = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


@st.composite
def labelled_datasets(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n, total = len(sizes), sum(sizes)
    p = draw(st.integers(0, 2))
    y = draw(st.lists(FINITE, min_size=total, max_size=total))
    X = draw(st.lists(st.lists(FINITE, min_size=p, max_size=p),
                      min_size=total, max_size=total))
    positions = None
    if draw(st.booleans()):
        positions = tuple(
            tuple(sorted(draw(st.lists(POSITION, min_size=m, max_size=m,
                                       unique=True))))
            for m in sizes)
    labels = draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))
    dataset = Dataset(
        y=np.array(y),
        X=np.column_stack([np.ones(total), np.array(X).reshape(total, p)]),
        design=GroupedDesign(group_sizes=tuple(sizes), positions=positions),
        column_names=("intercept",) + tuple(f"x{k}" for k in range(p)))
    return dataset, labels


@settings(max_examples=property_examples(100))
@given(labelled_datasets())
def test_dataset_round_trip_with_arbitrary_labels_and_floats(case):
    # labels may hold commas, quotes, newlines and any non-ASCII text
    ds, labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        io.write_dataset(ds, path, group_labels=labels)
        back = io.read_dataset(
            path, covariate_names=ds.column_names[1:],
            pos_column="pos" if ds.design.positions is not None else None)
    assert np.array_equal(_bits(back.y), _bits(ds.y))
    assert np.array_equal(_bits(back.X), _bits(ds.X))
    assert back.design.group_sizes == ds.design.group_sizes
    if ds.design.positions is None:
        assert back.design.positions is None
    else:
        assert [_bits(p).tolist() for p in back.design.positions] == \
            [_bits(p).tolist() for p in ds.design.positions]


def test_groups_ordered_by_first_appearance(tmp_path):
    path = write_csv(tmp_path / "g.csv",
                     "y,group\n1,zebra\n2,ant\n3,zebra\n4,ant\n5,ant\n")
    ds = io.read_dataset(path)
    # zebra appears first so its rows come first
    assert ds.design.group_sizes == (2, 3)
    assert np.array_equal(ds.y, [1.0, 3.0, 2.0, 4.0, 5.0])


def test_rows_sorted_by_position_within_group(tmp_path):
    path = write_csv(tmp_path / "p.csv",
                     "y,group,pos\n1,a,3\n2,a,1\n3,a,2\n")
    ds = io.read_dataset(path, pos_column="pos")
    assert np.array_equal(ds.y, [2.0, 3.0, 1.0])
    assert ds.design.positions == ((1.0, 2.0, 3.0),)


def test_unbalanced_sizes_accepted(tmp_path):
    rows = ["y,group"]
    for j, m in enumerate([7, 8, 9, 10]):
        rows += [f"{0.1 * i},{j}" for i in range(m)]
    ds = io.read_dataset(write_csv(tmp_path / "u.csv", "\n".join(rows) + "\n"))
    assert ds.design.group_sizes == (7, 8, 9, 10)


def test_table_design_reads_only_group_and_position(tmp_path):
    # a text y does not stop the design, which is read_dataset's design
    text = write_csv(tmp_path / "t.csv",
                     "y,group,pos\nabc,b,2\nx,a,5\n3,b,1\n4,a,4\n")
    design, order = io.table_design(io.read_table(text), pos_column="pos")
    assert design.group_sizes == (2, 2)
    assert design.positions == ((1.0, 2.0), (4.0, 5.0))
    assert order.tolist() == [2, 0, 3, 1]
    numeric = write_csv(tmp_path / "n.csv", "y,group,pos\n1,b,2\n2,a,5\n"
                        "3,b,1\n4,a,4\n")
    ds = io.read_dataset(numeric, pos_column="pos")
    assert ds.design == design
    assert ds.y.tolist() == [3.0, 1.0, 4.0, 2.0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_position_names_row_and_column(tmp_path, value):
    path = write_csv(tmp_path / "p.csv",
                     f"y,group,pos\n1,a,0\n2,a,1\n3,b,0\n4,b,{value}\n")
    for read in (lambda: io.read_dataset(path, pos_column="pos"),
                 lambda: io.table_design(io.read_table(path), "group", "pos")):
        # the whole message: a numpy scalar would print as np.float64(nan)
        with pytest.raises(ParseError) as err:
            read()
        assert str(err.value) == (f"row 5, column 'pos': position {value} "
                                  f"is not finite")


@pytest.mark.parametrize("body, message", [
    ("1,a,1\n2,b,2\n3,b,2\n",
     "row 4, column 'pos': position 2.0 duplicates one in group 'b'"),
    # -0.0 == 0.0: the later row in file order is the duplicate
    ("1,b,0.0\n2,b,-0.0\n",
     "row 3, column 'pos': position -0.0 duplicates one in group 'b'"),
    ("1,b,-0.0\n2,b,0\n",
     "row 3, column 'pos': position 0.0 duplicates one in group 'b'"),
    # the first group by first appearance, then the first pair in order
    ("1,c,5\n2,b,3\n3,b,1\n4,c,5\n5,b,1\n",
     "row 5, column 'pos': position 5.0 duplicates one in group 'c'"),
])
def test_duplicate_position_message_verbatim(tmp_path, body, message):
    # the whole message: a numpy scalar would print as np.float64(2.0)
    path = write_csv(tmp_path / "v.csv", "y,group,pos\n" + body)
    with pytest.raises(ParseError) as err:
        io.table_design(io.read_table(path), "group", "pos")
    assert str(err.value) == message


def test_labels_differing_by_a_nul_stay_two_groups(tmp_path):
    # csv passes the NUL through; a fixed-width numpy string array would
    # drop it and merge the two labels
    path = write_csv(tmp_path / "n.csv",
                     "y,group,pos\n1,a\x00,2\n2,a,1\n3,a\x00,1\n4,a,0\n")
    table = io.read_table(path)
    assert set(table.column("group")) == {"a", "a\x00"}
    design, order = io.table_design(table, "group", "pos")
    assert design.group_sizes == (2, 2)
    assert design.positions == ((1.0, 2.0), (0.0, 1.0))
    assert order.tolist() == [2, 0, 3, 1]
    design, order = io.table_design(table, "group")
    assert design.group_sizes == (2, 2)
    assert order.tolist() == [0, 2, 1, 3]


def test_parse_errors_name_row_and_column(tmp_path):
    bad_cell = write_csv(tmp_path / "a.csv", "y,group\n1,a\nhuh,b\n")
    with pytest.raises(ParseError, match=r"row 3, column 'y'"):
        io.read_dataset(bad_cell)
    # the first bad cell in file order, whatever its column
    later_y = write_csv(tmp_path / "a2.csv",
                        "y,group,x\n1,a,2\nhuh,b,no\n1,c,no\n")
    with pytest.raises(ParseError, match=r"row 3, column 'y'"):
        io.read_dataset(later_y, covariate_names=("x",))
    early_x = write_csv(tmp_path / "a3.csv", "y,group,x\n1,a,no\nhuh,b,2\n")
    with pytest.raises(ParseError, match=r"row 2, column 'x'"):
        io.read_dataset(early_x, covariate_names=("x",))
    missing = write_csv(tmp_path / "b.csv", "z,group\n1,a\n")
    with pytest.raises(ParseError, match="missing column 'y'"):
        io.read_dataset(missing)
    dup = write_csv(tmp_path / "c.csv", "y,group,pos\n1,a,2\n2,a,2\n")
    with pytest.raises(ParseError, match=r"column 'pos'"):
        io.read_dataset(dup, pos_column="pos")
    empty = write_csv(tmp_path / "d.csv", "")
    with pytest.raises(ParseError, match="empty"):
        io.read_dataset(empty)
    header_only = write_csv(tmp_path / "e.csv", "y,group\n")
    with pytest.raises(ParseError, match="no data rows"):
        io.read_dataset(header_only)
    ragged = write_csv(tmp_path / "f.csv", "y,group\n1,a\n2\n")
    with pytest.raises(ParseError, match="row 3"):
        io.read_dataset(ragged)


def test_blank_lines_are_skipped_and_rows_keep_their_file_line(tmp_path):
    path = write_csv(tmp_path / "b.csv", "y,group\n1,a\n\n2,b\n\nhuh,c\n")
    table = io.read_table(path)
    assert table.column("y") == ("1", "2", "huh")
    assert table.line_nums == (2, 4, 6)
    with pytest.raises(ParseError, match=r"row 6, column 'y'"):
        io.read_dataset(path)


@pytest.mark.parametrize("header", ["y,group,y", "y,group,x1,x1"])
def test_repeated_column_name_is_refused(tmp_path, header):
    # a second column of the same name would be silently ignored
    name = header.rsplit(",", 1)[1]
    path = write_csv(tmp_path / "a.csv",
                     header + "\n" + ",".join(["1"] * header.count(",")
                                               + ["2"]) + "\n")
    with pytest.raises(ParseError, match=f"header repeats column '{name}'"):
        io.read_table(path)


# ----------------------------------------------------------------------
# fits
# ----------------------------------------------------------------------

def make_fit():
    ds = simulate_dataset(SimConfig(design=balanced_design(5, 8), model=EXCH,
                                    param=0.4, beta=(0.0, 1.0), seed=4))
    prior = PCPrior.from_quantile(EXCH, ds.design, 0.5, 0.5)
    hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1 / 0.31, 0.01))
    return log_marginal_likelihood(ds, EXCH, hyper,
                                   grid=GridConfig(n_tau=101, n_corr=101))


def test_fit_round_trip(tmp_path):
    fit = make_fit()
    path = tmp_path / "fit.json"
    io.write_fit(fit, path)
    back = io.read_fit(path)
    assert back["log_mlik"] == fit.log_mlik
    assert back["rho"] == fit.rho
    assert back["beta"] == fit.beta
    # strict parsers see exactly the documented keys
    raw = json.loads(path.read_text())
    assert list(raw) == ["log_mlik", "rho", "sigma2", "beta", "diagnostics"]


def test_read_fit_rejects_stray_keys(tmp_path):
    path = tmp_path / "weird.json"
    payload = make_fit().to_json_dict()
    payload["extra"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="keys"):
        io.read_fit(path)
    with pytest.raises(ParseError):
        io.write_fit(payload, tmp_path / "no.json")


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_grid_round_trip_exact(tmp_path):
    prior = PCPrior.from_quantile(EXCH, balanced_design(6, 50), 0.1, 0.5)
    grid = density_grid(prior, 200)
    path = tmp_path / "grid.csv"
    io.write_grid(grid, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("param,distance,density,cdf\n")
    assert text.count("\n") == 201  # header plus exactly grid_size rows
    assert "\r" not in text
    back = io.read_grid(path)
    for name in ("param", "distance", "density", "cdf"):
        assert np.array_equal(getattr(back, name), getattr(grid, name))


def test_read_grid_rejects_wrong_header(tmp_path):
    path = write_csv(tmp_path / "g.csv", "rho,density\n0.1,1\n")
    with pytest.raises(ParseError, match="header"):
        io.read_grid(path)


# ----------------------------------------------------------------------
# bytes against a csv.writer oracle
# ----------------------------------------------------------------------

#: awkward doubles: signed zero, the smallest subnormal, a value %.17g
#: writes in exponent form, the largest double, infinity and NaN
AWKWARD = (-0.0, 5e-324, 1e-05, 1.7976931348623157e308, np.inf, np.nan)


def _csv_grid(grid, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(io.GRID_HEADER)
        for row in zip(grid.param, grid.distance, grid.density, grid.cdf):
            writer.writerow(["%.17g" % v for v in row])


def _csv_dataset(dataset, path, group_labels):
    design = dataset.design
    has_pos = design.positions is not None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        header = (["y", "group"] + (["pos"] if has_pos else [])
                  + list(dataset.column_names[1:]))
        (quoted if any("\r" in c for c in header) else plain).writerow(header)
        for j, s in enumerate(design.group_slices()):
            writer = quoted if "\r" in group_labels[j] else plain
            for i in range(s.start, s.stop):
                row = ["%.17g" % dataset.y[i], group_labels[j]]
                if has_pos:
                    row.append("%.17g" % design.positions[j][i - s.start])
                row.extend("%.17g" % v for v in dataset.X[i, 1:])
                writer.writerow(row)


def test_grid_bytes_equal_csv_writer_on_awkward_values(tmp_path):
    values = np.array(AWKWARD + tuple(-v for v in AWKWARD[1:4]))
    grid = PriorGrid(param=values, distance=values[::-1].copy(),
                     density=np.roll(values, 3), cdf=np.roll(values, 5))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    io.write_grid(grid, got)
    _csv_grid(grid, want)
    assert got.read_bytes() == want.read_bytes()
    back = io.read_grid(got)
    for name in ("param", "distance", "density", "cdf"):
        assert np.array_equal(_bits(getattr(back, name)),
                              _bits(getattr(grid, name)))


def test_grid_bytes_equal_csv_writer_across_format_blocks(tmp_path):
    # two full format blocks and a partial one, each cell drawn from the
    # awkward values
    rows = 2 * io._GRID_BLOCK + 3
    values = np.array(AWKWARD + tuple(-v for v in AWKWARD[1:4]))
    rng = np.random.default_rng(5)
    grid = PriorGrid(*(values[rng.integers(0, values.size, rows)]
                       for _ in range(4)))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    io.write_grid(grid, got)
    _csv_grid(grid, want)
    assert got.read_bytes() == want.read_bytes()
    assert len(io.read_grid(got)) == rows


@pytest.mark.parametrize("with_pos", [False, True])
def test_dataset_bytes_equal_csv_writer_on_awkward_labels(tmp_path, with_pos):
    finite = np.array(AWKWARD[:4] + tuple(-v for v in AWKWARD[1:4]))
    labels = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "ünï ≠ 100%", ""]
    sizes = (1, 2, 1, 1, 1, 1)
    design = GroupedDesign(group_sizes=sizes, positions=(
        (-0.0,), (5e-324, 1e-05), (1.7976931348623157e308,), (-1.5,),
        (2.5,), (0.0,)) if with_pos else None)
    ds = Dataset(y=finite, X=np.column_stack([np.ones(7), finite[::-1]]),
                 design=design, column_names=("intercept", "x,1"))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    io.write_dataset(ds, got, group_labels=labels)
    _csv_dataset(ds, want, labels)
    assert got.read_bytes() == want.read_bytes()
    back = io.read_dataset(got, covariate_names=("x,1",),
                           pos_column="pos" if with_pos else None)
    assert np.array_equal(_bits(back.y), _bits(ds.y))
    assert np.array_equal(_bits(back.X), _bits(ds.X))
    assert back.design == design
    if with_pos:
        assert [_bits(p).tolist() for p in back.design.positions] == \
            [_bits(p).tolist() for p in design.positions]
