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
import stat
import warnings
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
    t_1..t_N then x_1..x_n; floats are written as ``'%.17g' %`` writes
    them, so reloading reproduces the doubles exactly.  A non-finite value
    raises NumericRangeError before any file is opened.  Rows are formatted
    by array code ``CSV_BLOCK_ROWS`` at a time, and a block runs on across
    file boundaries.
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
    fh = None
    try:
        for start in range(0, len(flat), CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, len(flat))
            rows = np.hstack([site_cells(np.arange(start, stop) % size),
                              _float_cells(flat[start:stop])])
            a = start
            while a < stop:
                if a % size == 0:
                    fh = open(paths[a // size], "w", encoding="utf-8")
                    fh.write(header)
                b = min(stop, (a // size + 1) * size)
                # The text of the rows is their non-NUL bytes, in order.
                part = rows[a - start:b - start]
                fh.write(part[part != 0].tobytes().decode("ascii"))
                if b % size == 0:
                    fh.close()
                    fh = None
                a = b
    finally:
        if fh is not None:
            fh.close()


def _site_cells(window: Window):
    """The function from row indices of ``window`` (an array) to their site
    cells ``"t_1,..,t_N,"``: a uint8 matrix with one row per index, holding
    the text bytes in order with NUL bytes as padding.

    Each axis value is formatted once; a call gathers one table row per
    axis, so no table is larger than its axis.
    """
    axes = []
    for lo, hi in zip(window.lo, window.hi):
        text = np.array([f"{t}," for t in range(lo, hi + 1)], dtype=np.bytes_)
        axes.append(text.view(np.uint8).reshape(len(text), -1))

    def cells(rows: np.ndarray) -> np.ndarray:
        parts = []
        for axis in reversed(axes):
            rows, i = np.divmod(rows, len(axis))
            parts.append(axis[i])
        return np.hstack(parts[::-1])

    return cells


# Exact doubles 10^k, k = 0..20: the scales of _float_cells.
_POW10 = np.array([float(10 ** k) for k in range(21)])


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each value v of ``x``, an (m, n) array of finite
    floats, as an (m, 25 n) uint8 matrix: each row holds the text bytes of
    its values in order, with NUL bytes between them, and each value is
    followed by "," or, the last of a row, by a newline.

    A value with 1e-4 <= |v| < 1e17 is written in fixed notation from its
    17 significant digits (_decimal), a zero as "0" or "-0"; any other
    value goes through ``%``.
    """
    words, trailing, layout = _format_tables()
    v = x.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    e, digits = _decimal(np.where(fixed, a, 1.0))
    # Source bytes of each value: NUL, "-", ".", its separator, "000" and
    # its 17 digits, gathered as six 4-byte words.
    chunks = np.empty((len(v), 6), np.intp)
    chunks[:, 0] = 10000
    chunks.reshape(len(x), -1, 6)[:, -1, 0] = 10001
    for j in range(5, 1, -1):
        digits, chunks[:, j] = np.divmod(digits, 10000)
    chunks[:, 1] = digits
    src = words[chunks].view(np.uint8)
    zeros = trailing[chunks[:, 5]]
    for j in (4, 3, 2):
        zeros = np.where(zeros == 4 * (5 - j), zeros + trailing[chunks[:, j]], zeros)
    key = ((e + 4) * 2 + np.signbit(v)) * 17 + 16 - zeros
    zero = v == 0
    key[zero] = len(layout) - 2 + np.signbit(v[zero])
    # The gather runs 256 values at a time, so that its index stays small.
    cells = np.empty((len(v), 25), np.uint8)
    offsets = 24 * np.arange(256)[:, np.newaxis]
    for s in range(0, len(v), 256):
        index = np.take(layout, key[s:s + 256], axis=0).astype(np.intp)
        index += offsets[:len(index)]
        cells[s:s + 256] = np.take(src[s:s + 256].ravel(), index)
    other = np.flatnonzero(~fixed & ~zero)
    if other.size:
        # No value takes more than 24 bytes; the padding spaces become NUL.
        text = ("%-24.17g" * len(other)) % tuple(v[other].tolist())
        text = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        cells[other, :24] = np.where(text == ord(" "), 0, text)
    return cells.reshape(len(x), -1)


def _decimal(a: np.ndarray) -> tuple:
    """The decimal exponent e and the 17 significant digits, as an integer
    in [1e16, 1e17), of each value of ``a`` (1e-4 <= a < 1e17).

    The product a 10^(16 - e) is taken exactly, as a sum of two doubles
    (Dekker), so that rounding it to an integer, ties to even, gives the
    correctly rounded digits that ``'%.17g' %`` prints.
    """
    # log10 can miss the exponent by one next to a power of ten; the exact
    # product shows it, and the exponent steps until the product lies in
    # [1e16, 1e17).
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo, step = _scaled(a, e)
    wrong = np.flatnonzero(step)
    while wrong.size:
        e[wrong] += step[wrong]
        hi[wrong], lo[wrong], step[wrong] = _scaled(a[wrong], e[wrong])
        wrong = wrong[step[wrong] != 0]
    # hi is a multiple of 2 (its ulp is at least 2 above 1e16), so the
    # nearest integer to hi + lo, ties to even, is hi + rint(lo).
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return e + carry, digits


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple:
    """a 10^(16 - e) as the exact sum hi + lo of two doubles, and the step
    (-1, 0 or 1) to e that would bring it into [1e16, 1e17)."""
    b = _POW10[16 - e]
    hi = a * b
    a1, a2 = _halves(a)
    b1, b2 = _halves(b)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64)
    step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    return hi, lo, step


def _halves(a: np.ndarray) -> tuple:
    """Veltkamp's split of each double into two of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


@functools.cache
def _format_tables() -> tuple:
    """The tables of _float_cells, built on first use.

    ``words``: the four digits of 0..9999 as 4-byte words, then the words
    NUL "-" "." "," and NUL "-" "." newline.  ``trailing``: the trailing
    zero digits of 0..9999 as four digits.  ``layout``: for each exponent
    -4..16, sign and position 0..16 of the last nonzero digit, the source
    byte of each of the 25 bytes of a value's cell; then those of 0 and -0.
    """
    # np.divmod, as _float_cells uses it: no other integer division loop
    # is paged in.
    words = np.empty((10002, 4), np.uint8)
    rest = np.arange(10000)
    for k in range(3, -1, -1):
        rest, digit = np.divmod(rest, 10)
        words[:10000, k] = digit + ord("0")
    words[10000:] = [[0, ord("-"), ord("."), ord(sep)] for sep in ",\n"]
    i = np.arange(10000)
    trailing = sum((np.divmod(i, 10 ** k)[1] == 0).astype(np.intp) for k in (1, 2, 3, 4))
    # Source byte 7 + j holds digit j, byte 4 a zero, bytes 0-3 the rest.
    layout = np.zeros((21, 2, 17, 25), np.uint8)
    layout[..., 24] = 3
    for e in range(-4, 17):
        for last in range(17):
            if e >= 0:
                text = list(range(7, 8 + e))
                if last > e:
                    text += [2] + list(range(8 + e, 8 + last))
            else:
                text = [4, 2] + [4] * (-e - 1) + list(range(7, 8 + last))
            for neg in (0, 1):
                layout[e + 4, neg, last, :neg + len(text)] = [1] * neg + text
    zero = np.zeros((2, 25), np.uint8)
    zero[:, 24] = 3
    zero[0, 0] = zero[1, 1] = 4
    zero[1, 0] = 1
    return (words.view(np.uint32).ravel(), trailing,
            np.concatenate([layout.reshape(-1, 25), zero]))


def read_csv(csv_path, window: Window, n: int, clock: str = "integer") -> FieldWindow:
    """Read a field CSV whose dimensions are known from elsewhere.

    Every window site must appear exactly once, with integer site cells and
    finite values; a malformed, duplicate or non-finite row raises
    DimensionMismatchError naming its line, a site outside the window or a
    missing site raises WindowError.  Blank lines are skipped but counted
    in line numbers.  Each error begins with the name of the file.  Lines
    are parsed and checked ``CSV_BLOCK_ROWS`` at a time.  The header and,
    for a regular file, its size are checked first: a row takes at least
    2 * (N + n) - 1 bytes, so a file too short for the window raises
    WindowError, and nothing larger than a few times the file is allocated.
    """
    nn = window.N
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if len(header) != nn + n or header != _csv_header(nn, n):
                raise DimensionMismatchError(
                    f"CSV header {header} does not match expected t_1..t_{nn}, x_1..x_{n}")
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size < window.volume * (2 * (nn + n) - 1):
                raise WindowError(f"CSV is too short for {window.volume} window sites")
            dtype = np.dtype([("t", np.int64, (nn,)), ("x", np.float64, (n,))])
            vals = np.empty((window.volume, n))
            seen = np.zeros(window.volume, dtype=bool)
            lineno = 2
            while lines := list(itertools.islice(fh, CSV_BLOCK_ROWS)):
                _read_block(lines, lineno, window, dtype, vals, seen)
                lineno += len(lines)
        if not seen.all():
            raise WindowError(f"CSV is missing {int((~seen).sum())} of "
                              f"{window.volume} window sites")
    except (DimensionMismatchError, WindowError) as exc:
        raise type(exc)(f"{os.path.basename(csv_path)}: {exc}") from None
    vals.setflags(write=False)
    return FieldWindow(window, vals.reshape(window.shape + (n,)), clock)


def _read_block(lines: list, lineno: int, window: Window, dtype: np.dtype,
                vals: np.ndarray, seen: np.ndarray) -> None:
    """Parse, check and place ``lines``, the first at file line ``lineno``.

    numpy parses the block (_parse_block) and the finite, window and repeat
    checks run over it as arrays.  A block that numpy refuses or that fails
    a check is read again row by row, which accepts what Python's int and
    float accept and raises the error of the first offending row.
    """
    rows = _parse_block(lines, dtype)
    if rows is not None:
        sites, x = rows["t"], rows["x"]
        lo = np.array(window.lo)
        if np.isfinite(x).all() and ((sites >= lo) & (sites <= window.hi)).all():
            flat = np.ravel_multi_index(tuple((sites - lo).T), window.shape)
            # Rows in write order have increasing indices; others are sorted.
            if not seen[flat].any() and (
                    (flat[1:] > flat[:-1]).all() or len(np.unique(flat)) == len(flat)):
                vals[flat] = x
                seen[flat] = True
                return
    n = vals.shape[1]
    for i, line in enumerate(lines, lineno):
        if line.isspace():
            continue
        t, index, row = _check_row(line.strip(), i, window, n)
        k = np.ravel_multi_index(index, window.shape)
        if seen[k]:
            raise DimensionMismatchError(f"CSV line {i} repeats site {t}")
        vals[k] = row
        seen[k] = True


def _parse_block(lines: list, dtype: np.dtype):
    """The rows of ``lines`` as records of ``dtype`` read by numpy's C
    tokenizer, or None if it refuses a line.

    Warnings are errors: numpy 1.24 only warns when it reads "1.0" as an
    integer.  With both guards, every spelling numpy accepts is one that
    Python's int or float accepts, with the same value.
    """
    # numpy strips the ASCII separators U+001C..U+001F around a number as
    # whitespace; Python's int and float refuse them.
    text = "".join(lines)
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _check_row(line: str, lineno: int, window: Window, n: int) -> tuple:
    """The site, its index in the window and the values of one CSV line,
    with the checks that need no other row.

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
    return t, window.index(t), row


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
