import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcorrespond import (
    ConfigError,
    DimensionMismatchError,
    FieldWindow,
    NumericRangeError,
    Window,
    WindowError,
    load_field,
    previous_value,
    read_csv,
    rect_from_units,
    rect_increment,
    save_field,
    unit_increment,
    unit_increment_field,
    write_csv,
    write_csvs,
)

from fieldcorrespond import fields
from fieldcorrespond._jsonio import format_float

from conftest import corner_sum_naive, integer_field, random_field, random_window


# ---------------------------------------------------------------------------
# Window


def test_window_basics():
    w = Window((-1, 0), (2, 3))
    assert w.N == 2
    assert w.shape == (4, 4)
    assert w.volume == 16
    assert w.contains((0, 0)) and w.contains((-1, 3))
    assert not w.contains((3, 0)) and not w.contains((0, -1))
    assert w.index((-1, 0)) == (0, 0)
    assert w.index((2, 3)) == (3, 3)


def test_window_sites_lexicographic():
    w = Window((0, 0), (1, 1))
    assert list(w.sites()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_window_shifted_and_intersection():
    w = Window((0,), (4,))
    assert w.shifted((2,)) == Window((2,), (6,))
    assert w.intersection(Window((3,), (9,))) == Window((3,), (4,))
    with pytest.raises(WindowError, match="overlap"):
        w.intersection(Window((5,), (9,)))


def test_window_rejects_bad_bounds():
    with pytest.raises(WindowError):
        Window((2,), (1,))
    with pytest.raises((WindowError, DimensionMismatchError)):
        Window((0, 0), (1,))


@pytest.mark.parametrize("spec", [
    {"lo": [0.5], "hi": [3.9]},
    {"lo": [0.0], "hi": [3]},
    {"lo": [True], "hi": [3]},
    {"lo": [0], "hi": ["3"]},
    {"lo": [0], "hi": [3], "step": [1]},
    {"lo": [0]},
    {"lo": 0, "hi": 3},
    [[0], [3]],
    None,
])
def test_window_from_dict_rejects(spec):
    # Corners are integers, never truncated floats or bools, and a window
    # object has exactly the keys lo and hi.
    with pytest.raises(ConfigError):
        Window.from_dict(spec)


def test_window_index_outside():
    w = Window((0,), (2,))
    with pytest.raises(WindowError):
        w.index((3,))


# ---------------------------------------------------------------------------
# FieldWindow


def test_field_window_scalar_promotion():
    w = Window((0,), (2,))
    x = FieldWindow(w, np.array([1.0, 2.0, 3.0]))
    assert x.n == 1
    assert x.values.shape == (3, 1)
    np.testing.assert_array_equal(x.at((1,)), [2.0])


def test_field_window_immutable(rng):
    x = random_field(rng, Window((0,), (2,)), 2)
    with pytest.raises(ValueError):
        x.values[0, 0] = 9.0


def test_field_window_copies_input():
    vals = np.zeros((3, 1))
    x = FieldWindow(Window((0,), (2,)), vals)
    vals[0, 0] = 7.0
    assert x.at((0,))[0] == 0.0


def test_window_shape_is_computed_once():
    w = Window((-1, 0), (2, 3))
    assert w.shape is w.shape and w.volume == 16
    assert w == Window((-1, 0), (2, 3)) and hash(w) == hash(Window((-1, 0), (2, 3)))


def test_field_window_keeps_frozen_arrays_and_copies_the_rest():
    w = Window((0,), (2,))
    frozen = np.arange(6.0).reshape(3, 2).copy()
    frozen.setflags(write=False)
    assert FieldWindow(w, frozen).values is frozen
    # A view of another field's values costs no copy either.
    x = FieldWindow(w, frozen[:, :1])
    assert np.shares_memory(x.values, frozen)
    assert np.shares_memory(x.with_meta({"a": 1}).values, frozen)
    # A read-only view of a writable array could still change: copied.
    base = np.zeros((3, 1))
    view = base.view()
    view.setflags(write=False)
    y = FieldWindow(w, view)
    base[0, 0] = 7.0
    assert y.at((0,))[0] == 0.0
    ints = np.arange(3)
    ints.setflags(write=False)
    assert FieldWindow(w, ints).values.dtype == np.float64


def test_field_window_shape_mismatch():
    with pytest.raises(DimensionMismatchError, match="shape"):
        FieldWindow(Window((0,), (2,)), np.zeros((4, 1)))


def test_field_window_bad_clock():
    with pytest.raises(DimensionMismatchError, match="clock"):
        FieldWindow(Window((0,), (1,)), np.zeros((2, 1)), clock="lunar")


def test_field_window_zeros_and_meta():
    x = FieldWindow.zeros(Window((0, 0), (1, 1)), 3, meta={"seed": 5})
    assert x.values.shape == (2, 2, 3)
    assert x.meta == {"seed": 5}
    y = x.with_meta({"seed": 6})
    assert y.meta == {"seed": 6}
    np.testing.assert_array_equal(x.values, y.values)


# ---------------------------------------------------------------------------
# Increments.  The unit-cube increment of a separable multilinear field is
# identically 1, and of any constant field identically 0; those two facts
# plus the naive corner-sum reimplementation in conftest are the oracles.


def test_unit_increment_constant_is_exact_zero():
    w = Window((-2, -2), (2, 2))
    x = FieldWindow(w, np.full(w.shape + (2,), 3.7))
    for t in Window((-1, -1), (2, 2)).sites():
        assert np.array_equal(unit_increment(x, t), np.zeros(2))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unit_increment_multilinear_is_one(N):
    w = Window((-2,) * N, (2,) * N)
    vals = np.ones(w.shape)
    for axis in range(N):
        coords = np.arange(-2, 3, dtype=float)
        shape = [1] * N
        shape[axis] = 5
        vals = vals * coords.reshape(shape)
    x = FieldWindow(w, vals)
    for t in Window((-1,) * N, (2,) * N).sites():
        assert unit_increment(x, t)[0] == pytest.approx(1.0, abs=1e-12)


def test_unit_increment_n1_difference(rng):
    x = integer_field(rng, Window((0,), (5,)), 2)
    for t in range(1, 6):
        np.testing.assert_array_equal(
            unit_increment(x, (t,)), x.at((t,)) - x.at((t - 1,))
        )


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unit_increment_matches_naive(rng, N):
    x = random_field(rng, Window((-1,) * N, (2,) * N), 2)
    for t in Window((0,) * N, (2,) * N).sites():
        np.testing.assert_array_equal(unit_increment(x, t), corner_sum_naive(x, t))


def test_rect_equals_sum_of_units(rng):
    # The two routes are implemented independently and must agree exactly
    # on integer-valued fields.
    for N in (1, 2, 3):
        for _ in range(12):
            w = random_window(rng, N, max_side=4)
            x = integer_field(rng, w, int(rng.integers(1, 3)))
            s = w.lo
            t = tuple(int(v) for v in rng.integers(1, 0, size=0).tolist()) or tuple(
                int(rng.integers(a, b + 1)) for a, b in zip(w.lo, w.hi)
            )
            np.testing.assert_array_equal(
                rect_increment(x, s, t), rect_from_units(x, s, t)
            )


def test_rect_degenerate_is_exact_zero(rng):
    x = random_field(rng, Window((0, 0), (3, 3)), 2)
    out = rect_increment(x, (1, 2), (3, 2))
    assert np.array_equal(out, np.zeros(2))


def test_rect_sign_swap_bit_exact(rng):
    # Swapping the corners reverses orientation on every non-degenerate
    # axis, so the full swap carries the factor (-1)^(number of axes with
    # s_l != t_l), and the equality must hold bit for bit.
    for N in (1, 2, 3):
        w = Window((0,) * N, (3,) * N)
        x = random_field(rng, w, 2)
        for _ in range(10):
            s = tuple(int(v) for v in rng.integers(0, 4, size=N))
            t = tuple(int(v) for v in rng.integers(0, 4, size=N))
            m = sum(1 for a, b in zip(s, t) if a != b)
            np.testing.assert_array_equal(
                rect_increment(x, s, t), (-1.0) ** m * rect_increment(x, t, s)
            )


def test_rect_single_axis_swap_is_negation(rng):
    x = random_field(rng, Window((0, 0), (3, 3)), 2)
    fwd = rect_increment(x, (0, 1), (2, 3))
    np.testing.assert_array_equal(rect_increment(x, (2, 1), (0, 3)), -fwd)


def test_rect_mixed_orientation_matches_units(rng):
    # Swapping a single axis flips the sign of the ordered evaluation.
    w = Window((0, 0), (3, 3))
    x = integer_field(rng, w, 1)
    fwd = rect_from_units(x, (0, 0), (2, 3))
    np.testing.assert_array_equal(rect_increment(x, (2, 0), (0, 3)), -fwd)


def test_rect_corner_outside_window(rng):
    x = random_field(rng, Window((0,), (2,)), 1)
    with pytest.raises(WindowError, match="outside"):
        rect_increment(x, (0,), (3,))


def test_rect_from_units_requires_order(rng):
    x = random_field(rng, Window((0, 0), (2, 2)), 1)
    with pytest.raises(WindowError, match="s <= t"):
        rect_from_units(x, (2, 0), (0, 0))


def test_previous_value_n1_exact(rng):
    x = random_field(rng, Window((0,), (4,)), 3)
    for t in range(1, 5):
        np.testing.assert_array_equal(previous_value(x, (t,)), x.at((t - 1,)))


def test_previous_value_completes_increment(rng):
    # X_t = previous_value + unit increment, exactly on integer fields.
    for N in (1, 2, 3):
        x = integer_field(rng, Window((0,) * N, (3,) * N), 2)
        for t in Window((1,) * N, (3,) * N).sites():
            np.testing.assert_array_equal(
                previous_value(x, t) + unit_increment(x, t), x.at(t)
            )


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unit_increment_field_matches_sitewise(rng, N):
    x = integer_field(rng, Window((-1,) * N, (2,) * N), 2)
    d = unit_increment_field(x)
    assert d.window == Window((0,) * N, (2,) * N)
    for t in d.window.sites():
        np.testing.assert_array_equal(d.at(t), unit_increment(x, t))


def test_unit_increment_field_window_too_small(rng):
    x = random_field(rng, Window((0, 0), (0, 3)), 1)
    with pytest.raises(WindowError, match="too small"):
        unit_increment_field(x)


# ---------------------------------------------------------------------------
# CSV + sidecar interchange


def test_csv_roundtrip_bit_exact(tmp_path, rng):
    w = Window((-1, 2), (2, 4))
    x = random_field(rng, w, 3)
    path = tmp_path / "f.csv"
    write_csv(x, path)
    back = read_csv(path, w, 3)
    np.testing.assert_array_equal(back.values, x.values)


def test_csv_header(tmp_path, rng):
    x = random_field(rng, Window((0, 0), (1, 1)), 2)
    path = tmp_path / "f.csv"
    write_csv(x, path)
    header = path.read_text().splitlines()[0]
    assert header == "t_1,t_2,x_1,x_2"


def test_csv_missing_site(tmp_path, rng):
    x = random_field(rng, Window((0,), (3,)), 1)
    path = tmp_path / "f.csv"
    write_csv(x, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(WindowError, match="missing"):
        read_csv(path, x.window, 1)


def csv_with_row(tmp_path, rng, row_index, new_row):
    """A 2 x 2 field CSV whose data row ``row_index`` is replaced."""
    x = random_field(rng, Window((0, 0), (1, 1)), 2)
    path = tmp_path / "f.csv"
    write_csv(x, path)
    lines = path.read_text().splitlines()
    lines[1 + row_index] = new_row
    path.write_text("\n".join(lines) + "\n")
    return path, x.window


@pytest.mark.parametrize(
    "new_row,match",
    [
        ("0,0,0.5,0.25", "line 5 repeats site \\(0, 0\\)"),
        ("1,1,nan,0.25", "line 5 has a non-finite value"),
        ("1,1,0.5,-inf", "line 5 has a non-finite value"),
        ("1,1,0.5,1e999", "line 5 has a non-finite value"),
        ("1.0,1,0.5,0.25", "line 5 has a non-integer site"),
        ("a,1,0.5,0.25", "line 5 has a non-integer site"),
        ("1,1,0.5,abc", "line 5 has a non-integer site or non-numeric value"),
        ("1,1,0.5", "bad CSV line 5: '1,1,0.5'"),
        ("1,1,0.5,0.25,0.125", "bad CSV line 5: '1,1,0.5,0.25,0.125'"),
        ("1", "bad CSV line 5: '1'"),
    ],
)
def test_csv_rejects_bad_rows(tmp_path, rng, new_row, match):
    path, window = csv_with_row(tmp_path, rng, 3, new_row)
    with pytest.raises(DimensionMismatchError, match=match):
        read_csv(path, window, 2)


@pytest.mark.parametrize("new_row", ["1,1,0.5,\x1c0.25", "1,\x1f1,0.5,0.25"])
def test_csv_refuses_separators_that_only_numpy_strips(tmp_path, rng, new_row):
    # numpy's reader takes U+001C..U+001F around a cell for whitespace;
    # Python's int and float refuse them, and so does read_csv (only the
    # ends of a whole line are stripped, as str.strip does).
    path, window = csv_with_row(tmp_path, rng, 3, new_row)
    with pytest.raises(DimensionMismatchError,
                       match="line 5 has a non-integer site or non-numeric value"):
        read_csv(path, window, 2)


def reference_csv(x):
    """Field CSV text written row by row, independently of write_csv."""
    lines = [",".join([f"t_{j + 1}" for j in range(x.N)]
                      + [f"x_{k + 1}" for k in range(x.n)])]
    flat = x.values.reshape(-1, x.n)
    for row, t in enumerate(x.window.sites()):
        lines.append(",".join([str(v) for v in t] + [format_float(v) for v in flat[row]]))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.0 ** 53, -3.0, 1e16, 0.1]
CSV_VALUES = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2 ** 60), 2 ** 60).map(float),
    st.builds(np.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def csv_fields(draw):
    N = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-3, 0)) for _ in range(N))
    hi = tuple(draw(st.integers(0, 3)) for _ in range(N))
    w = Window(lo, hi)
    vals = draw(st.lists(CSV_VALUES, min_size=w.volume * n, max_size=w.volume * n))
    return FieldWindow(w, np.array(vals).reshape(w.shape + (n,)))


@settings(max_examples=100, deadline=None)
@given(x=csv_fields(), block=st.sampled_from([1, 3, 7, fields.CSV_BLOCK_ROWS]))
def test_csv_bytes_match_row_writer_and_read_back_exactly(tmp_path_factory, x, block):
    path = tmp_path_factory.getbasetemp() / "prop.csv"
    with mock.patch.object(fields, "CSV_BLOCK_ROWS", block):
        write_csv(x, path)
        assert path.read_bytes() == reference_csv(x).encode()
        back = read_csv(path, x.window, x.n)
    assert back.values.tobytes() == x.values.tobytes()


def long_csv(tmp_path, rows, edit):
    """A 1-D field CSV of ``rows`` sites whose line list ``edit`` changes."""
    x = FieldWindow(Window((0,), (rows - 1,)), np.arange(rows, dtype=float) + 0.5)
    path = tmp_path / "long.csv"
    write_csv(x, path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path, x.window


def test_csv_bad_row_beyond_first_block(tmp_path):
    line = fields.CSV_BLOCK_ROWS + 60

    def edit(lines):
        lines[line - 1] = "1100,abc"

    path, window = long_csv(tmp_path, fields.CSV_BLOCK_ROWS + 200, edit)
    with pytest.raises(DimensionMismatchError,
                       match=f"CSV line {line} has a non-integer site"):
        read_csv(path, window, 1)


def test_csv_repeat_in_a_later_block(tmp_path):
    # The site of line 4 comes again in the second block.
    line = fields.CSV_BLOCK_ROWS + 60

    def edit(lines):
        lines[line - 1] = "2,7.5"

    path, window = long_csv(tmp_path, fields.CSV_BLOCK_ROWS + 200, edit)
    with pytest.raises(DimensionMismatchError,
                       match=f"^long.csv: CSV line {line} repeats site \\(2,\\)$"):
        read_csv(path, window, 1)


def test_csv_blank_lines_count_toward_line_numbers(tmp_path):
    # 1,500 blank or whitespace lines push the bad row into a later block.
    def edit(lines):
        lines[10] = "9,0.5,7"
        lines[5:5] = ["", "   ", "\t"] * 500

    path, window = long_csv(tmp_path, 50, edit)
    with pytest.raises(DimensionMismatchError,
                       match="bad CSV line 1511: '9,0.5,7'"):
        read_csv(path, window, 1)


def test_csv_blank_lines_are_skipped(tmp_path):
    def edit(lines):
        lines[3:3] = ["", "  "] * 700
        lines.append("")

    path, window = long_csv(tmp_path, 30, edit)
    np.testing.assert_array_equal(read_csv(path, window, 1).values[:, 0],
                                  np.arange(30) + 0.5)


@pytest.mark.parametrize("site", ["5,0", "-1,1", "99999999999999999999,0"])
def test_csv_site_outside_window(tmp_path, rng, site):
    path, window = csv_with_row(tmp_path, rng, 2, site + ",0.5,0.25")
    with pytest.raises(WindowError, match=f"site \\({site.replace(',', ', ')}\\) outside"):
        read_csv(path, window, 2)


def test_csv_first_offending_row_wins(tmp_path):
    # A repeat on line 4 comes before a malformed cell on line 7 and a
    # short row on line 9, all in one block.
    def edit(lines):
        lines[3] = "1,9.5"
        lines[6] = "5,x"
        lines[8] = "7"

    path, window = long_csv(tmp_path, 12, edit)
    with pytest.raises(DimensionMismatchError, match="CSV line 4 repeats site \\(1,\\)"):
        read_csv(path, window, 1)


# ---------------------------------------------------------------------------
# Batch-wide CSV export


@st.composite
def csv_batches(draw):
    """(values, window): one to five fields on one small window."""
    N = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(N))
    hi = tuple(draw(st.integers(0, 2)) for _ in range(N))
    w = Window(lo, hi)
    k = draw(st.integers(1, 5))
    vals = draw(st.lists(CSV_VALUES, min_size=k * w.volume * n, max_size=k * w.volume * n))
    return np.array(vals).reshape((k,) + w.shape + (n,)), w


CSV_EDITS = ("non-finite", "repeat", "missing", "outside", "float site", "cell count",
             "header", "no rows", "blank")


def edit_csv_lines(lines, kind, j):
    """Apply edit ``kind`` to a CSV's line list (line 0 is the header) at
    data line ``j``; every kind but "blank" makes the file bad."""
    cells = lines[j].split(",")
    if kind == "non-finite":
        cells[-1] = "nan"
    elif kind == "outside":
        cells[0] = "99"
    elif kind == "float site":
        cells[0] = "1.0"
    elif kind == "cell count":
        cells.append("0.5")
    lines[j] = ",".join(cells)
    if kind == "repeat":
        lines.insert(j, lines[j])
    elif kind == "missing":
        del lines[j]
    elif kind == "header":
        lines[0] = "t_1,bad"
    elif kind == "no rows":
        del lines[1:]
    elif kind == "blank":
        lines[j:j] = ["", "  "] * j


@settings(max_examples=150, deadline=None)
@given(batch=csv_batches(), block=st.sampled_from([1, 3, 7, fields.CSV_BLOCK_ROWS]))
def test_batch_csv_io_matches_one_file_at_a_time(tmp_path_factory, batch, block):
    # Blocks of 1, 3 and 7 rows split files and span file boundaries; a
    # block of 1024 holds several whole files.
    values, window = batch
    paths = [tmp_path_factory.getbasetemp() / f"rep_{r:05d}.csv" for r in range(len(values))]
    with mock.patch.object(fields, "CSV_BLOCK_ROWS", block):
        write_csvs(values, window, paths)
        for v, path in zip(values, paths):
            assert path.read_bytes() == reference_csv(FieldWindow(window, v)).encode()
            back = read_csv(path, window, values.shape[-1])
            assert back.values.tobytes() == v.tobytes()
            assert not back.values.flags.writeable


@settings(max_examples=150, deadline=None)
@given(x=csv_fields(), block=st.sampled_from([1, 3, 7]),
       edits=st.lists(st.tuples(st.sampled_from(CSV_EDITS), st.integers(1, 10 ** 6)),
                      max_size=2))
def test_read_csv_is_the_same_in_any_block_size(tmp_path_factory, x, block, edits):
    # Small blocks put the edited rows, and the first and second fault of
    # a file, in different blocks or at a block boundary; the value or the
    # error must be the one a read in a single block gives.
    path = tmp_path_factory.getbasetemp() / "edited.csv"
    write_csv(x, path)
    for kind, j in edits:
        lines = path.read_text().splitlines()
        if len(lines) > 1:  # else an earlier edit left no rows to edit
            edit_csv_lines(lines, kind, 1 + j % (len(lines) - 1))
        path.write_text("\n".join(lines) + "\n")
    window, n = x.window, x.n
    try:
        with mock.patch.object(fields, "CSV_BLOCK_ROWS", 10 ** 9):
            expected = read_csv(path, window, n).values
    except (DimensionMismatchError, WindowError) as exc:
        with mock.patch.object(fields, "CSV_BLOCK_ROWS", block):
            with pytest.raises(type(exc)) as got:
                read_csv(path, window, n)
        assert str(got.value) == str(exc)
        assert type(got.value) is type(exc)
        return
    with mock.patch.object(fields, "CSV_BLOCK_ROWS", block):
        assert read_csv(path, window, n).values.tobytes() == expected.tobytes()


def formatter_cases():
    """Over 10^6 doubles: every binade, dense cover of the fixed-notation
    range [1e-4, 1e17), powers of ten and their neighbours, exact ties at
    the 17th digit, integers around 2^53, zeros and the extremes."""
    rng = np.random.default_rng(20261019)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (2098, 120)), np.arange(-1074, 1024)[:, None])
    fixed = np.ldexp(rng.uniform(1.0, 2.0, (72, 3500)), np.arange(-14, 58)[:, None])
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [np.nextafter(tens, s) for s in (0.0, np.inf)]
    # v = m 2^(x - 17) with m odd lies exactly halfway between two 17-digit
    # decimals when 10^x <= v < 10^(x + 1).
    ties = []
    for x in range(-4, 16):
        low = int(np.ceil(10.0 ** x * 2.0 ** (17 - x)))
        high = min(int(10.0 ** (x + 1) * 2.0 ** (17 - x)), 2 ** 53)
        m = rng.integers(low, high, 1000) | 1
        ties.append(np.ldexp(m.astype(float), x - 17))
    ints = np.concatenate([rng.integers(2 ** 52, 2 ** 53, 20000),
                           rng.integers(2 ** 53, 10 ** 17, 20000)]).astype(float)
    edges = np.array([0.0, 1e-4, 1e17, 5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, 0.1, 0.5, 1.0, 9.999999999999999e16])
    with np.errstate(over="ignore"):
        edges = np.concatenate([edges] + [np.nextafter(edges, s) for s in (0.0, np.inf)])
    v = np.concatenate([binades.ravel(), fixed.ravel(), tens, *near, *ties, ints, edges])
    v = v[np.isfinite(v)]
    return np.concatenate([v, -v])


def test_float_cells_match_percent_format():
    v = formatter_cases()
    assert len(v) >= 10 ** 6
    for start in range(0, len(v), 1 << 15):
        chunk = v[start:start + (1 << 15)]
        cells = fields._float_cells(chunk[:, np.newaxis])
        got = cells[cells != 0].tobytes().decode("ascii").split("\n")[:-1]
        want = ["%.17g" % f for f in chunk.tolist()]
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"{chunk[i]!r}: wrote {got[i]!r}, '%.17g' gives {want[i]!r}")


SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
ODD_CELLS = ["", "+", "-", ".", "e5", "1e", "inf", "-Infinity", "nan", "+NaN", "nan(1)",
             "1_0", "1__0", "_1", "0x1p3", "1j", "1d5", "1#2", "\u0661", "\u0663.5", "1\x00",
             "1.0", "1e0", "99999999999999999999", "-9223372036854775809",
             "9223372036854775807", "1e400", "-1e-400", "2.4703282292062328e-324",
             "4.9406564584124654e-324", "0.1e-310", "00012", "-0", "+.5e-3",
             "1 5", "- 1", "1e 5", "1.5\x1c", "\x1f2", "1\x1d.5", "\x1e-\x1e3"]


def csv_cell(draw, site: bool) -> str:
    """One cell, mostly an integer (site) or a decimal with optional point
    and exponent (value), sometimes an odd spelling, with whitespace of
    several kinds around it."""
    if draw(st.integers(0, 9)) == 0:
        body = draw(st.sampled_from(ODD_CELLS))
    elif site:
        body = (draw(st.sampled_from(["", "+", "-"]))
                + draw(st.text("0123456789", min_size=1, max_size=20)))
    else:
        body = (draw(st.sampled_from(["", "+", "-"]))
                + draw(st.text("0123456789", max_size=25))
                + draw(st.sampled_from(["", "."]))
                + draw(st.text("0123456789", min_size=1, max_size=25))
                + draw(st.sampled_from(["", "e", "E-", "e+"]))
                + draw(st.text("0123456789", max_size=3)))
    pad = st.sampled_from(SPACES[:1] * 6 + SPACES)
    return draw(pad) + body + draw(pad)


@st.composite
def csv_rows(draw):
    """A row of two site and two value cells, now and then one cell more
    or less."""
    cells = [csv_cell(draw, k < 2) for k in range(4)]
    extra = draw(st.integers(0, 19))
    if extra == 0:
        cells.pop()
    elif extra == 1:
        cells.append(csv_cell(draw, False))
    return ",".join(cells)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(csv_rows() | st.sampled_from(SPACES), min_size=1, max_size=4))
def test_numpy_parse_accepts_only_what_python_accepts(rows):
    # Every block numpy's reader accepts, the row-by-row route accepts too,
    # with bitwise-equal values; blank lines are skipped by both.
    dtype = np.dtype([("t", np.int64, (2,)), ("x", np.float64, (2,))])
    parsed = fields._parse_block([row + "\n" for row in rows], dtype)
    if parsed is None:
        return
    lines = [row for row in rows if not (row + "\n").isspace()]
    assert len(parsed) == len(lines)
    for record, line in zip(parsed, lines):
        cells = line.strip().split(",")
        assert len(cells) == 4
        assert record["t"].tolist() == [int(c) for c in cells[:2]]
        want = np.array([float(c) for c in cells[2:]])
        assert record["x"].tobytes() == want.tobytes()


def _edit_csv(path, fault):
    lines = path.read_text().splitlines()
    if fault == "missing site":
        del lines[-1]
    elif fault == "bad row":
        lines[2] = "1,abc"
    elif fault == "non-finite":
        lines[2] = "1,inf"
    else:
        lines[0] = "t_1,bad"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fault, error, message", [
    ("missing site", WindowError, "^rep_00001.csv: CSV is missing 1 of 4 window sites$"),
    ("bad row", DimensionMismatchError, "^rep_00001.csv: CSV line 3 has a non-integer site"),
    ("non-finite", DimensionMismatchError,
     "^rep_00001.csv: CSV line 3 has a non-finite value: '1,inf'$"),
    ("bad header", DimensionMismatchError, "^rep_00001.csv: CSV header "),
], ids=["missing-site", "bad-row", "non-finite", "bad-header"])
def test_read_csv_names_the_file_and_line(tmp_path, fault, error, message):
    path = tmp_path / "rep_00001.csv"
    write_csv(FieldWindow(Window((0,), (3,)), np.ones(4)), path)
    _edit_csv(path, fault)
    with pytest.raises(error, match=message):
        read_csv(path, Window((0,), (3,)), 1)


def test_write_csvs_refuses_non_finite_before_opening_any_file(tmp_path):
    vals = np.zeros((4, 3, 1))
    vals[2, 1, 0] = np.nan
    paths = [tmp_path / f"rep_{r}.csv" for r in range(4)]
    with pytest.raises(NumericRangeError, match="not writing .*rep_2.csv"):
        write_csvs(vals, Window((0,), (2,)), paths)
    assert not list(tmp_path.iterdir())


def test_write_csvs_checks_the_file_count(tmp_path):
    with pytest.raises(DimensionMismatchError, match="3 files"):
        write_csvs(np.zeros((2, 3, 1)), Window((0,), (2,)),
                   [tmp_path / f"{r}.csv" for r in range(3)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_refuses_non_finite_before_opening(tmp_path, bad):
    vals = np.zeros((3, 3, 2))
    vals[2, 1, 0] = bad
    path = tmp_path / "f.csv"
    with pytest.raises(NumericRangeError, match="non-finite"):
        write_csv(FieldWindow(Window((0, 0), (2, 2)), vals), path)
    assert not path.exists()


def test_save_load_field_sidecar(tmp_path, rng):
    w = Window((0, -1), (2, 1))
    x = random_field(rng, w, 2, clock="exponential").with_meta({"seed": 11})
    path = tmp_path / "field.csv"
    save_field(x, path)
    assert (tmp_path / "field.json").exists()
    back = load_field(path)
    assert back.window == w
    assert back.clock == "exponential"
    assert back.meta.get("seed") == 11
    np.testing.assert_array_equal(back.values, x.values)


@pytest.mark.parametrize("key, value", [
    ("n", 2.7), ("n", True), ("n", 0), ("N", True), ("N", 2), ("N", 1.0),
    ("lo", [0.0]), ("hi", [True]), ("clock", "sidereal"), ("n", None),
])
def test_load_field_rejects_malformed_sidecar(tmp_path, rng, key, value):
    # A sidecar entry that an integer check, the window parser or the clock
    # list refuses is a ConfigError, not a truncated or silently kept value.
    path = tmp_path / "field.csv"
    save_field(random_field(rng, Window((0,), (2,)), 2), path)
    side_path = tmp_path / "field.json"
    side = json.loads(side_path.read_text())
    side[key] = value
    side_path.write_text(json.dumps(side))
    with pytest.raises(ConfigError, match="malformed field sidecar"):
        load_field(path)


@pytest.mark.parametrize("text", ["{not json", "", "\xff\xfe"])
def test_load_field_rejects_invalid_sidecar_json(tmp_path, rng, text):
    path = tmp_path / "field.csv"
    save_field(random_field(rng, Window((0,), (2,)), 1), path)
    (tmp_path / "field.json").write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError, match="field.json is not valid JSON"):
        load_field(path)


def test_load_field_without_sidecar(tmp_path, rng):
    x = random_field(rng, Window((0,), (1,)), 1)
    path = tmp_path / "field.csv"
    write_csv(x, path)
    with pytest.raises((WindowError, FileNotFoundError)):
        load_field(path)
