"""Dense fields on rectangular integer windows, and their increments.

A field is observed on a rectangular window ``[lo, hi]`` of Z^N and takes
values in R^n.  Storage is a dense row-major array of shape
``(*window.shape, n)``; indexing outside the window is an error, never a
silent zero.

The ``clock`` tag records how sites are meant to be read: ``"integer"``
for a field sampled at t itself, ``"exponential"`` for a field sampled at
(e^{t_1}, ..., e^{t_N}).  Increments are computed identically either way;
the tag only matters for interpretation and for the transforms.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import dump_json, load_json
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NumericRangeError,
    WindowError,
    check_int,
)

MultiIndex = tuple

CLOCKS = ("integer", "exponential")

# Rows formatted, or lines parsed and checked, per step of the CSV reader
# and writer: large enough to amortize per-call overhead, small enough to
# keep the temporary cell lists far below the size of the field.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Window:
    """Rectangular index window [lo, hi] in Z^N (both corners included).

    A corner entry that is a bool or not an integer raises ConfigError.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(check_int(x, "window corner") for x in self.lo)
        hi = tuple(check_int(x, "window corner") for x in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise WindowError(f"window corners disagree: lo={lo}, hi={hi}")
        if any(l > h for l, h in zip(lo, hi)):
            raise WindowError(f"empty window: lo={lo} exceeds hi={hi}")

    @property
    def N(self) -> int:
        return len(self.lo)

    @functools.cached_property
    def shape(self) -> tuple:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @functools.cached_property
    def volume(self) -> int:
        return math.prod(self.shape)

    def contains(self, t) -> bool:
        return len(t) == self.N and all(
            l <= int(x) <= h for x, l, h in zip(t, self.lo, self.hi)
        )

    def index(self, t) -> tuple:
        if not self.contains(t):
            raise WindowError(f"site {tuple(t)} outside window [{self.lo}, {self.hi}]")
        return tuple(int(x) - l for x, l in zip(t, self.lo))

    def sites(self):
        """All sites in lexicographic order (t_1 slowest)."""
        return itertools.product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def shifted(self, s) -> "Window":
        s = tuple(int(x) for x in s)
        if len(s) != self.N:
            raise DimensionMismatchError(f"shift {s} has wrong length for N={self.N}")
        return Window(
            tuple(l + d for l, d in zip(self.lo, s)),
            tuple(h + d for h, d in zip(self.hi, s)),
        )

    def intersection(self, other: "Window") -> "Window":
        if other.N != self.N:
            raise DimensionMismatchError("windows have different N")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            raise WindowError(f"windows {self} and {other} do not overlap")
        return Window(lo, hi)

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        """The window of a ``{"lo": [...], "hi": [...]}`` object.

        The only parser of windows read from JSON: any other object raises
        ConfigError, and the corners are checked by the constructor.
        """
        if not (isinstance(d, dict) and set(d) == {"lo", "hi"}
                and all(isinstance(c, (list, tuple)) for c in d.values())):
            raise ConfigError(
                f"window must be an object with 'lo' and 'hi' lists, got {d!r}")
        return cls(tuple(d["lo"]), tuple(d["hi"]))

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]"


@dataclass(frozen=True)
class FieldWindow:
    """Field values on a window; immutable after construction.

    The values are copied into a read-only float array, except a read-only
    float array whose memory is not writable through its base either (the
    values of another field, a replication of a batch): that one is kept
    as it is, so views cost no copy.
    """

    window: Window
    values: np.ndarray
    clock: str = "integer"
    meta: dict = field(default=None, compare=False)

    def __post_init__(self):
        vals = self.values
        if not _frozen_floats(vals):
            vals = np.array(vals, dtype=float)
        expected = self.window.shape
        if vals.ndim == len(expected):
            # Scalar field given without the trailing component axis.
            vals = vals[..., np.newaxis]
        if vals.shape[:-1] != expected:
            raise DimensionMismatchError(
                f"values shape {vals.shape} does not match window shape "
                f"{expected} + (n,)"
            )
        if self.clock not in CLOCKS:
            raise DimensionMismatchError(
                f"clock must be one of {CLOCKS}, got {self.clock!r}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def N(self) -> int:
        return self.window.N

    @classmethod
    def zeros(cls, window: Window, n: int, clock: str = "integer", meta=None):
        return cls(window, np.zeros(window.shape + (n,)), clock, meta)

    def at(self, t) -> np.ndarray:
        """Value at site t (read-only view); errors outside the window."""
        return self.values[self.window.index(t)]

    def with_meta(self, meta: dict) -> "FieldWindow":
        return FieldWindow(self.window, self.values, self.clock, meta)

    def shifted(self, s) -> "FieldWindow":
        return FieldWindow(self.window.shifted(s), self.values, self.clock, self.meta)


def _frozen_floats(v) -> bool:
    """Is v a float64 array that neither it nor its base lets anyone write?"""
    return (isinstance(v, np.ndarray) and v.dtype == np.float64
            and not v.flags.writeable
            and (v.base is None
                 or isinstance(v.base, np.ndarray) and not v.base.flags.writeable))


def _corner_signs(N: int):
    """Corner offsets i in {0,1}^N with parity signs (-1)^(sum i)."""
    for i in itertools.product((0, 1), repeat=N):
        yield i, -1.0 if sum(i) % 2 else 1.0


def unit_increment(x: FieldWindow, t) -> np.ndarray:
    """Increment over the unit cube [t-1, t]: alternating corner sum."""
    t = tuple(int(v) for v in t)
    acc = np.zeros(x.n)
    for i, sign in _corner_signs(x.N):
        site = tuple(a - b for a, b in zip(t, i))
        acc += sign * x.at(site)
    return acc


def rect_increment(x: FieldWindow, s, t) -> np.ndarray:
    """Increment over the rectangle with corners s and t.

    s <= t is not required: the evaluation runs through the canonical
    orientation (componentwise min/max) and applies the sign (-1)^m,
    m = number of axes with s_l > t_l, so the sign-swap identity is exact.
    Degenerate rectangles (some s_l == t_l) return an exact zero vector.
    """
    s = tuple(int(v) for v in s)
    t = tuple(int(v) for v in t)
    if len(s) != x.N or len(t) != x.N:
        raise DimensionMismatchError(f"corner length mismatch: {s}, {t} vs N={x.N}")
    for corner in (s, t):
        if not x.window.contains(corner):
            raise WindowError(
                f"rectangle corner {corner} outside window {x.window}"
            )
    if any(a == b for a, b in zip(s, t)):
        return np.zeros(x.n)
    m = sum(1 for a, b in zip(s, t) if a > b)
    a = tuple(min(p, q) for p, q in zip(s, t))
    b = tuple(max(p, q) for p, q in zip(s, t))
    acc = np.zeros(x.n)
    for i, sign in _corner_signs(x.N):
        site = tuple(bb - ii * (bb - aa) for aa, bb, ii in zip(a, b, i))
        acc += sign * x.at(site)
    if m % 2:
        acc = -acc
    return acc


def rect_from_units(x: FieldWindow, s, t) -> np.ndarray:
    """Sum of unit-cube increments over (s, t]; equals rect_increment(x, s, t).

    Requires s <= t componentwise.  This is the slow reference route kept
    distinct from rect_increment on purpose.
    """
    s = tuple(int(v) for v in s)
    t = tuple(int(v) for v in t)
    if len(s) != x.N or len(t) != x.N:
        raise DimensionMismatchError(f"corner length mismatch: {s}, {t} vs N={x.N}")
    if any(a > b for a, b in zip(s, t)):
        raise WindowError(f"rect_from_units needs s <= t, got s={s}, t={t}")
    acc = np.zeros(x.n)
    for j in itertools.product(*(range(a + 1, b + 1) for a, b in zip(s, t))):
        acc += unit_increment(x, j)
    return acc


def previous_value(x: FieldWindow, t) -> np.ndarray:
    """Value X_t minus its unit-cube increment, i.e. the corner sum
    sum_{i != 0} (-1)^(1 + sum i) X_{t-i}.

    For N = 1 this is exactly X_{t-1}.
    """
    t = tuple(int(v) for v in t)
    acc = np.zeros(x.n)
    for i, sign in _corner_signs(x.N):
        if sum(i) == 0:
            continue
        site = tuple(a - b for a, b in zip(t, i))
        acc += -sign * x.at(site)
    return acc


def unit_increment_field(x: FieldWindow) -> FieldWindow:
    """All unit-cube increments at once, on the shrunk window [lo+1, hi]."""
    if any(s < 2 for s in x.window.shape):
        raise WindowError(
            f"window {x.window} too small for unit increments (needs >= 2 per axis)"
        )
    arr = x.values
    for axis in range(x.N):
        arr = np.diff(arr, axis=axis)
    w = Window(tuple(l + 1 for l in x.window.lo), x.window.hi)
    return FieldWindow(w, arr, x.clock)


# ---------------------------------------------------------------------------
# CSV + sidecar interchange


def sidecar_path(csv_path) -> str:
    p = str(csv_path)
    if p.endswith(".csv"):
        return p[: -len(".csv")] + ".json"
    return p + ".json"


def _csv_header(nn: int, n: int) -> list:
    return [f"t_{j + 1}" for j in range(nn)] + [f"x_{k + 1}" for k in range(n)]


def write_csv(x: FieldWindow, csv_path) -> None:
    """Write one field CSV, no sidecar: the one-file case of write_csvs."""
    write_csvs(x.values[np.newaxis], x.window, [csv_path])


def write_csvs(values, window: Window, paths) -> None:
    """Write ``values[r]``, a field on ``window``, to ``paths[r]`` for each r.

    ``values`` has shape (k, *window.shape, n) for a sequence of k paths.
    Each file holds one row per site (lexicographic order), columns
    t_1..t_N then x_1..x_n; floats carry 17 significant digits so reloading
    reproduces the doubles exactly.  A non-finite value raises
    NumericRangeError before any file is opened.  Rows are formatted
    ``CSV_BLOCK_ROWS`` at a time, and a block runs on across file
    boundaries.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[:-1] != (len(paths),) + window.shape:
        raise DimensionMismatchError(
            f"values shape {values.shape} does not match {len(paths)} files on "
            f"window shape {window.shape} + (n,)"
        )
    size, n = window.volume, values.shape[-1]
    flat = values.reshape(-1, n)
    # The minimum or maximum is NaN or infinite exactly when some value is;
    # two reductions need no temporary the size of the batch.
    if not (np.isfinite(flat.min(initial=0.0)) and np.isfinite(flat.max(initial=0.0))):
        finite = np.isfinite(flat).all(axis=1)
        raise NumericRangeError(
            f"field on window {window} has non-finite values; not writing "
            f"{paths[int(np.argmin(finite)) // size]}"
        )
    header = ",".join(_csv_header(window.N, n)) + "\n"
    site_cells = _site_cells(window)
    row = "%s" + ",".join(["%.17g"] * n) + "\n"
    block = np.empty((min(CSV_BLOCK_ROWS, len(flat)), 1 + n), dtype=object)
    fh = None
    try:
        for start in range(0, len(flat), CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, len(flat))
            block[: stop - start, 0] = site_cells(np.arange(start, stop) % size)
            block[: stop - start, 1:] = flat[start:stop]
            cells = block[: stop - start].ravel().tolist()
            a = start
            while a < stop:
                if a % size == 0:
                    fh = open(paths[a // size], "w", encoding="utf-8")
                    fh.write(header)
                b = min(stop, (a // size + 1) * size)
                fh.write((row * (b - a)) % tuple(cells[(a - start) * (1 + n):
                                                       (b - start) * (1 + n)]))
                if b % size == 0:
                    fh.close()
                    fh = None
                a = b
    finally:
        if fh is not None:
            fh.close()


def _site_cells(window: Window):
    """The function from row indices of ``window`` (an array) to their site
    cells ``"t_1,..,t_N,"``, as an object array of strings.

    Each axis value is formatted once.  The cells of the trailing axes
    whose sites fit in one CSV block are joined once into a table; those
    of the leading axes are prepended per call, so the table never holds
    more strings than a block has rows, whatever the window size.
    """
    axes = [np.array([f"{t}," for t in range(lo, hi + 1)], dtype=object)
            for lo, hi in zip(window.lo, window.hi)]
    lead = window.N
    while lead and math.prod(window.shape[lead - 1:]) <= CSV_BLOCK_ROWS:
        lead -= 1
    table = np.array([""], dtype=object)
    for axis in axes[lead:]:
        table = np.add.outer(table, axis).ravel()

    def cells(rows: np.ndarray) -> np.ndarray:
        rest, inner = np.divmod(rows, len(table))
        out = table[inner]
        for axis in reversed(axes[:lead]):
            rest, i = np.divmod(rest, len(axis))
            out = axis[i] + out
        return out

    return cells


def read_csv(csv_path, window: Window, n: int, clock: str = "integer") -> FieldWindow:
    """Read a field CSV whose dimensions are known from elsewhere.

    Every window site must appear exactly once, with integer site cells and
    finite values; a malformed, duplicate or non-finite row raises
    DimensionMismatchError naming its line, a site outside the window or a
    missing site raises WindowError.  Blank lines are skipped but counted
    in line numbers.  Each error begins with the name of the file.  Lines
    are parsed and checked ``CSV_BLOCK_ROWS`` at a time.
    """
    expected = _csv_header(window.N, n)
    vals = np.empty((window.volume, n))
    seen = np.zeros(window.volume, dtype=bool)
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != expected:
                raise DimensionMismatchError(
                    f"CSV header {header} does not match expected {expected}")
            lineno = 2
            while lines := list(itertools.islice(fh, CSV_BLOCK_ROWS)):
                _read_block(lines, lineno, window, vals, seen)
                lineno += len(lines)
        if not seen.all():
            raise WindowError(f"CSV is missing {int((~seen).sum())} of "
                              f"{window.volume} window sites")
    except (DimensionMismatchError, WindowError) as exc:
        raise type(exc)(f"{os.path.basename(csv_path)}: {exc}") from None
    vals.setflags(write=False)
    return FieldWindow(window, vals.reshape(window.shape + (n,)), clock)


def _read_block(lines: list, lineno: int, window: Window, vals: np.ndarray,
                seen: np.ndarray) -> None:
    """Parse, check and place ``lines``, the first at file line ``lineno``.

    The cell-count, finite, window and repeat checks run over the whole
    block as arrays.  When one fails, the first offending row is named,
    with the error a row-by-row read would raise for it.
    """
    nn, n = window.N, vals.shape[1]
    ncol = nn + n
    # Rows keep their line ends: Python's int and float ignore surrounding
    # whitespace, so the cells parse as stripped ones would.
    rows = list(itertools.filterfalse(str.isspace, lines))
    counted = np.fromiter(map(str.count, rows, itertools.repeat(",")), np.int64,
                          len(rows)) == ncol - 1
    stop = len(rows) if counted.all() else int(np.argmin(counted))
    try:
        sites, x = _parse_rows(rows[:stop], nn, ncol)
    except (ValueError, OverflowError):
        for stop, row in enumerate(rows):
            try:
                _parse_rows([row], nn, ncol)
            except (ValueError, OverflowError):
                break
        sites, x = _parse_rows(rows[:stop], nn, ncol)
    lo = np.array(window.lo)[:, np.newaxis]
    hi = np.array(window.hi)[:, np.newaxis]
    finite = np.isfinite(x).all(axis=1)
    inside = ((sites >= lo) & (sites <= hi)).all(axis=0)
    # Rows outside the window stand in at site lo; they fail regardless.
    flat = np.ravel_multi_index(np.where(inside, sites, lo) - lo, window.shape)
    first = np.zeros(len(flat), dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    bad = ~finite | ~inside | seen[flat] | ~first
    k = int(np.argmax(bad)) if bad.any() else stop
    vals[flat[:k]] = x[:k]
    seen[flat[:k]] = True
    if k == len(rows):
        return
    k_lineno = lineno + [j for j, line in enumerate(lines) if not line.isspace()][k]
    _check_row(rows[k].strip(), k_lineno, window, n)
    raise DimensionMismatchError(
        f"CSV line {k_lineno} repeats site {tuple(sites[:, k].tolist())}")


def _parse_rows(rows: list, nn: int, ncol: int) -> tuple:
    """Site columns (nn, m) as int64 and values (m, n) as float.

    numpy hands each cell to Python's ``int`` or ``float``, so the accepted
    spellings are those of a row-by-row read.
    """
    cells = ",".join(rows).split(",") if rows else []
    sites = np.array([cells[j::ncol] for j in range(nn)], dtype=np.int64)
    x = np.array([cells[j::ncol] for j in range(nn, ncol)], dtype=float).T
    return sites.reshape(nn, len(rows)), x.reshape(len(rows), ncol - nn)


def _check_row(line: str, lineno: int, window: Window, n: int) -> None:
    """The checks of one CSV line that need no other row (error path only).

    A site too large for int64 passes the parse here and is refused by the
    window check, as any site outside the window is.
    """
    nn = window.N
    cells = line.split(",")
    if len(cells) != nn + n:
        raise DimensionMismatchError(f"bad CSV line {lineno}: {line!r}")
    try:
        t = tuple(int(c) for c in cells[:nn])
        row = [float(c) for c in cells[nn:]]
    except ValueError:
        raise DimensionMismatchError(
            f"CSV line {lineno} has a non-integer site or non-numeric "
            f"value: {line!r}"
        ) from None
    if not all(math.isfinite(v) for v in row):
        raise DimensionMismatchError(
            f"CSV line {lineno} has a non-finite value: {line!r}"
        )
    window.index(t)


def save_field(x: FieldWindow, csv_path) -> None:
    """Write the field CSV plus its JSON sidecar."""
    write_csv(x, csv_path)
    meta = dict(x.meta) if x.meta else {}
    sidecar = {
        "N": x.N,
        "n": x.n,
        "lo": list(x.window.lo),
        "hi": list(x.window.hi),
        "clock": x.clock,
        "seed": meta.pop("seed", None),
    }
    sidecar.update(meta)
    dump_json(sidecar, sidecar_path(csv_path))


def load_field(csv_path) -> FieldWindow:
    """The field CSV with the geometry and metadata of its JSON sidecar.

    A sidecar that is not valid JSON, lacks a key, holds a bad window or
    clock, or has ``n``/``N`` that are not positive integers (bools
    refused) raises ConfigError; the CSV itself is checked by read_csv.
    """
    path = sidecar_path(csv_path)
    side = load_json(path)
    try:
        window = Window.from_dict({"lo": side["lo"], "hi": side["hi"]})
        n = check_int(side["n"], "sidecar n", 1)
        nn = check_int(side["N"], "sidecar N", 1)
        clock = side["clock"]
        if window.N != nn or clock not in CLOCKS:
            raise ConfigError(f"N={nn} must match window {window} and clock "
                              f"{clock!r} be one of {CLOCKS}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field sidecar {path}: {exc}") from exc
    x = read_csv(csv_path, window, n, clock)
    meta = {k: side[k] for k in side if k not in ("N", "n", "lo", "hi", "clock")}
    if meta.get("seed") is None:
        meta.pop("seed", None)
    return FieldWindow(window, x.values, clock, meta or None)
