"""Fractional Brownian sheets and Gaussian window sampling.

The scalar sheet with Hurst vector H = (H_1, ..., H_N), 0 < H_j <= 1, has
covariance

    C(t, s) = 2^-N * prod_j (|t_j|^(2 H_j) + |s_j|^(2 H_j) - |t_j - s_j|^(2 H_j)),

which reduces to min(t, s) for N = 1, H = 1/2 and vanishes whenever some
t_j = 0.  A multivariate sheet stacks n independent scalar sheets
component-wise and mixes them with a constant matrix A.

On a rectangular window the Gram matrix of a scalar sheet is the
Kronecker product of its 1-D Gram matrices, one per axis.  Sampling
factors each 1-D Gram through the symmetric eigendecomposition, clipping
small negative eigenvalues (exact rank deficiency occurs at H_j = 1), and
applies the factors to a standard normal array by mode products, so no
matrix over the whole window is ever formed.  Zero-variance sites produce
exact zeros, never jitter.

Randomness contract: replication r of seed s lies in group g = r // G,
G = max(1, DRAW_BLOCK // (n * volume)), and is row r - gG, in C order, of
the (rows, n, volume) standard normals of ``substream(s, g)``: one Philox
counter stream (Salmon, Moraes, Dror & Shaw, SC'11) per group.  The rows
of a group are a prefix of its stream, so drawing its first k rows gives
the bytes of drawing all G and slicing, and any subset of replications
is reproduced byte-identically.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonio import dump_json, load_json
from .errors import ConfigError, DimensionMismatchError, NumericRangeError, check_int
from .fields import CLOCKS, FieldWindow, Window, write_csvs

# Largest site count for one Gram-matrix factorization (one window axis
# when sampling).
GRID_CAP = 4096
# Tag of the sampling algorithm, recorded in batch manifests: a change
# that alters the draws for a given seed gets a new tag.
SAMPLER_VERSION = "kron-v3"
# Tag of the batch directory layout, recorded in batch manifests: the
# values live in one ``values.npy``, and the replication CSVs are an export.
BATCH_LAYOUT = "npy-v1"
# Largest number of standard normals drawn and transformed together; a
# bound in doubles keeps the temporaries of one block small whatever the
# window size.  It also sets the group size G of the randomness contract,
# so changing it changes the draws and needs a new SAMPLER_VERSION.
DRAW_BLOCK = 1 << 15
# Exponential-clock sites e^{t_j} overflow the usable double range well
# before |t_j| reaches 300; the model keeps a conservative margin.
EXP_CLOCK_LIMIT = 30

# Negative eigenvalues beyond this relative tolerance mean the matrix is
# not a covariance; below it they are clipped to zero.
INDEFINITE_RTOL = 1e-10


@dataclass(frozen=True)
class HurstSpec:
    """Per-component Hurst vectors: row k gives H^(k) for component k.

    Entries must be numbers in (0, 1]; anything else, a bool included,
    raises ConfigError.
    """

    H: np.ndarray

    def __post_init__(self):
        h = _float_array(self.H, "H")
        if h.ndim == 1:
            h = h[np.newaxis, :]
        if h.ndim != 2 or h.size == 0:
            raise ConfigError(f"H must be an n x N array, got shape {h.shape}")
        if not np.all(np.isfinite(h)) or np.any(h <= 0.0) or np.any(h > 1.0):
            raise ConfigError("Hurst indices must satisfy 0 < H <= 1")
        h.setflags(write=False)
        object.__setattr__(self, "H", h)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def N(self) -> int:
        return self.H.shape[1]

    def row(self, k: int) -> np.ndarray:
        return self.H[k]


def fbs_cov(t, s, H) -> float:
    """Closed-form sheet covariance at real points t and s."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    H = np.asarray(H, dtype=float)
    if not (t.shape == s.shape == H.shape) or t.ndim != 1:
        raise DimensionMismatchError(
            f"t, s, H must be equal-length vectors, got {t.shape}, {s.shape}, {H.shape}"
        )
    if np.any(H <= 0.0) or np.any(H > 1.0):
        raise ConfigError("Hurst indices must satisfy 0 < H <= 1")
    two_h = 2.0 * H
    factors = (
        np.abs(t) ** two_h + np.abs(s) ** two_h - np.abs(t - s) ** two_h
    )
    return float(np.prod(factors) / 2.0 ** len(H))


def build_cov_matrix(points, H) -> np.ndarray:
    """Gram matrix of the sheet covariance over a list of real N-vectors."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError(f"points must be (m, N), got shape {pts.shape}")
    m, nn = pts.shape
    if m > GRID_CAP:
        raise NumericRangeError(
            f"grid of {m} points exceeds the factorization cap of {GRID_CAP}"
        )
    H = np.asarray(H, dtype=float)
    if H.shape != (nn,):
        raise DimensionMismatchError(f"H has shape {H.shape}, expected ({nn},)")
    if np.any(H <= 0.0) or np.any(H > 1.0):
        raise ConfigError("Hurst indices must satisfy 0 < H <= 1")
    cov = np.ones((m, m))
    for j in range(nn):
        a = np.abs(pts[:, j]) ** (2.0 * H[j])
        d = np.abs(pts[:, j, np.newaxis] - pts[np.newaxis, :, j]) ** (2.0 * H[j])
        cov *= a[:, np.newaxis] + a[np.newaxis, :] - d
    cov /= 2.0 ** nn
    return cov


def factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T = cov, via eigendecomposition with clipping.

    Eigenvalues below ``-INDEFINITE_RTOL * norm`` (norm: the largest
    |eigenvalue|) raise; the small negative ones that rank-deficient grids
    produce are clipped to zero.  Rows of L for exactly-zero-variance sites
    are zeroed so those samples come out exactly 0.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {cov.shape}")
    w, q = np.linalg.eigh(cov)
    scale = float(max(-w[0], w[-1]))
    # The Frobenius norm bounds the spectral norm, so this O(V^2) test is at
    # least as strict as one in the spectral norm.
    asym = float(np.linalg.norm(cov - cov.T))
    if asym > 1e-12 * max(scale, 1e-300):
        raise DimensionMismatchError(
            f"covariance is not symmetric (asymmetry {asym:.3e})"
        )
    if scale > 0.0 and w[0] < -INDEFINITE_RTOL * scale:
        raise NumericRangeError(
            f"matrix is indefinite beyond tolerance: eigenvalue {w[0]:.6e} "
            f"with norm {scale:.6e}"
        )
    l = q * np.sqrt(np.clip(w, 0.0, None))
    l[np.diag(cov) == 0.0, :] = 0.0
    return l


# Largest replication index; a group index is the top Philox counter word.
MAX_REPLICATION = (1 << 64) - 1


def substream(seed: int, group: int) -> np.random.Generator:
    """The reference generator of one group of replications.

    Philox keyed by ``SeedSequence(seed).generate_state(2, uint64)`` with
    counter ``[0, 0, 0, group]``.  Philox counts up from word 0, so a
    group's draws never reach the next group's counter.
    """
    return _streams(seed)(group)


def _streams(seed: int):
    """The function from a group index to its generator under ``seed``, as
    ``substream`` defines it; the key is hashed once, not once per group."""
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)

    def stream(group: int) -> np.random.Generator:
        counter = np.array([0, 0, 0, int(group)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    return stream


def empty_values(replications: int, window: Window, n: int) -> np.ndarray:
    """An empty (replications, *window.shape, n) array; NumericRangeError,
    naming the count and the bytes, if it cannot be allocated."""
    shape = (replications,) + window.shape + (n,)
    try:
        return np.empty(shape)
    except (ValueError, MemoryError):
        raise NumericRangeError(f"{replications} replications need {8 * math.prod(shape)} "
                                "bytes, more than can be allocated") from None


def sheet_points(window: Window, clock: str) -> np.ndarray:
    """Window sites as real sampling points, (volume, N), lexicographic."""
    pts = np.array(list(window.sites()), dtype=float)
    if clock == "exponential":
        if max(abs(v) for c in (window.lo, window.hi) for v in c) > EXP_CLOCK_LIMIT:
            raise NumericRangeError(
                f"exponential clock window {window} exceeds |t_j| <= "
                f"{EXP_CLOCK_LIMIT}; the covariance dynamic range would overflow"
            )
        pts = np.exp(pts)
    elif clock != "integer":
        raise DimensionMismatchError(f"unknown clock {clock!r}")
    return pts


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a new float array; a bool entry raises ConfigError."""
    def has_bool(v) -> bool:
        if isinstance(v, np.ndarray):
            return v.dtype == bool or v.dtype == object and any(map(has_bool, v.flat))
        if isinstance(v, (list, tuple)):
            return any(map(has_bool, v))
        return isinstance(v, (bool, np.bool_))

    if has_bool(value):
        raise ConfigError(f"{what} entries must be numbers, not booleans: {value!r}")
    return np.array(value, dtype=float)


def as_mixing(a, n: int) -> np.ndarray:
    """``a`` as a read-only float (n, n) matrix.

    A bool entry raises ConfigError; a wrong shape or a non-finite entry
    raises DimensionMismatchError.
    """
    a = _float_array(a, "mixing matrix")
    if a.shape != (n, n):
        raise DimensionMismatchError(f"mixing matrix has shape {a.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatchError("mixing matrix has non-finite entries")
    a.setflags(write=False)
    return a


class SheetSampler:
    """Reusable sampler: factors each component's per-axis Gram matrices once.

    ``_factors[j][k]`` is the factor of the 1-D Gram of component k along
    axis j; the Kronecker product over j factors the Gram of the window.
    Draws share no state, so a sampler is thread-safe.
    """

    def __init__(self, mixing, hurst: HurstSpec, window: Window, clock: str):
        if window.N != hurst.N:
            raise DimensionMismatchError(
                f"window has N={window.N}, Hurst spec has N={hurst.N}"
            )
        self.mixing = as_mixing(mixing, hurst.n)
        self.hurst = hurst
        self.window = window
        self.clock = clock
        self._factors = []
        for j, (lo, hi) in enumerate(zip(window.lo, window.hi)):
            pts = sheet_points(Window((lo,), (hi,)), clock)
            self._factors.append(np.stack([
                factor_covariance(build_cov_matrix(pts, hurst.H[k, j:j + 1]))
                for k in range(hurst.n)
            ]))

    @property
    def group_size(self) -> int:
        """G: the replications per stream, and per block of ``blocks``."""
        return max(1, DRAW_BLOCK // (self.hurst.n * self.window.volume))

    def sample(self, seed: int, replication: int = 0) -> FieldWindow:
        """Replication ``replication`` of the batch drawn from ``seed``."""
        return self.sample_many(seed, (replication,))[0]

    def sample_many(self, seed: int, replications) -> list:
        """One field per index in ``replications``, mixed as one block.

        Field i equals ``sample(seed, replications[i])`` byte for byte; each
        group's stream draws only up to the last row asked of it.
        """
        seed = check_int(seed, "seed", 0)
        reps = [check_int(r, "replication index", 0) for r in replications]
        if any(r > MAX_REPLICATION for r in reps):
            raise ConfigError(f"replication indices must be <= {MAX_REPLICATION}")
        size, groups, stream = self.group_size, {}, _streams(seed)
        for i, r in enumerate(reps):
            groups.setdefault(r // size, []).append(i)
        x = np.empty((len(reps), self.hurst.n, self.window.volume))
        for g, idx in groups.items():
            rows = [reps[i] % size for i in idx]
            x[idx] = stream(g).standard_normal((max(rows) + 1,) + x.shape[1:])[rows]
        return [
            FieldWindow(self.window, v, self.clock, {"seed": seed, "replication": r})
            for v, r in zip(self._mix(x), reps)
        ]

    def blocks(self, seed: int, replications: int):
        """Replications 0 .. replications-1 as successive (start, values) pairs.

        ``values`` is a read-only (count, *window.shape, n) array whose
        entry i is replication start + i, the values of
        ``sample(seed, start + i)`` byte for byte.  Block b is group b, so
        it holds at most ``DRAW_BLOCK`` normals (at least one replication)
        and a caller that consumes the blocks one at a time keeps only one
        block of draws alive.
        """
        seed = check_int(seed, "seed", 0)
        replications = check_int(replications, "replications", 0)
        size, shape = self.group_size, (self.hurst.n, self.window.volume)
        stream = _streams(seed)
        for start in range(0, replications, size):
            x = np.empty((min(size, replications - start),) + shape)
            stream(start // size).standard_normal(out=x)
            yield start, self._mix(x)

    def _mix(self, x: np.ndarray) -> np.ndarray:
        """Read-only (count, *window.shape, n) values of (count, n, volume) normals."""
        count, n, volume = x.shape
        # Mode product along the leading window axis of every component,
        # then rotate that axis to the back; after N steps the axes are in
        # order again.
        for m, f in zip(self.window.shape, self._factors):
            x = np.matmul(f, x.reshape(count, n, m, volume // m)).transpose(0, 1, 3, 2)
        vals = np.matmul(x.reshape(count, n, volume).transpose(0, 2, 1), self.mixing.T)
        vals.setflags(write=False)
        return vals.reshape((count,) + self.window.shape + (n,))


class _FieldViews(Sequence):
    """The replications of a batch as FieldWindow views, built when indexed."""

    def __init__(self, batch: "SampleBatch"):
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch.values)

    def __getitem__(self, r: int) -> FieldWindow:
        b = self._batch
        r = range(len(b.values))[r]
        meta = None
        if b.field_meta is not None:
            meta = {"seed": b.seed, "replication": r}
            meta.update(copy.deepcopy(b.field_meta))
        return FieldWindow(b.window, b.values[r], b.clock, meta)


class _ReplicationPaths(Sequence):
    """``rep_00000.csv``, ``rep_00001.csv``, ... in a batch directory, the
    paths the batch's CSV export writes, built when indexed so that a large
    batch holds no list of paths."""

    def __init__(self, directory, count: int):
        self._directory, self._count = directory, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, r: int) -> str:
        return os.path.join(self._directory, f"rep_{range(self._count)[r]:05d}.csv")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """R replications of one field configuration, plus the manifest data.

    ``values`` holds replication r at ``values[r]``, in one array of shape
    (R, *window.shape, n); the batch takes the array over and makes it
    read-only.  ``fields[r]`` is replication r as a FieldWindow view of
    ``values[r]``, built when indexed.  Its metadata is None when
    ``field_meta`` is None (a batch read back from disk); otherwise it is
    the seed, the replication index and a copy of ``field_meta``.
    """

    seed: int
    values: np.ndarray
    window: Window
    clock: str
    config: dict = field(default_factory=dict)
    field_meta: dict = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != self.window.N + 2 or vals.shape[1:-1] != self.window.shape:
            raise DimensionMismatchError(
                f"batch values have shape {vals.shape}, expected "
                f"(R, *{self.window.shape}, n)"
            )
        if self.clock not in CLOCKS:
            raise DimensionMismatchError(
                f"clock must be one of {CLOCKS}, got {self.clock!r}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def replications(self) -> int:
        return len(self.values)

    @property
    def fields(self) -> Sequence:
        return _FieldViews(self)

    def manifest(self) -> dict:
        man = {"seed": int(self.seed), "R": self.replications}
        man.update(self.config)
        return man

    def save(self, directory) -> None:
        """Write ``rep_00000.csv``, ``rep_00001.csv``, ..., then
        ``values.npy`` and then ``manifest.json``; a non-finite value writes
        none of them.

        ``values.npy`` holds ``values`` as little-endian float64 in C order
        and is what load_batch reads; the CSVs are a text export of the
        same values, one per replication.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_csvs(self.values, self.window,
                   _ReplicationPaths(directory, self.replications))
        np.save(directory / "values.npy", np.ascontiguousarray(self.values, "<f8"),
                allow_pickle=False)
        dump_json({**self.manifest(), "layout": BATCH_LAYOUT}, directory / "manifest.json")


def sample_sheet_batch(
    mixing, hurst: HurstSpec, window: Window, clock: str, seed: int,
    replications: int,
) -> SampleBatch:
    """Batch of independent sheet draws; deterministic in (seed, config)."""
    seed = check_int(seed, "seed", 0)
    replications = check_int(replications, "replications", 1)
    sampler = SheetSampler(mixing, hurst, window, clock)
    values = empty_values(replications, window, hurst.n)
    for start, block in sampler.blocks(seed, replications):
        values[start:start + len(block)] = block
    config = {
        "H": hurst.H.tolist(),
        "A": sampler.mixing.tolist(),
        "window": window.to_dict(),
        "clock": clock,
        "n": hurst.n,
        "N": hurst.N,
        "sampler": SAMPLER_VERSION,
    }
    return SampleBatch(seed, values, window, clock, config, field_meta={})


def read_manifest(directory) -> tuple:
    """``(manifest, window, clock, n)`` of the batch saved in ``directory``.

    The one reader of a batch's geometry.  The manifest must hold a window
    object, a clock from CLOCKS, and integers ``n`` >= 1, ``R`` >= 1 and
    ``seed`` >= 0 (bools refused); anything else, invalid JSON included,
    raises ConfigError.
    """
    man = load_json(Path(directory) / "manifest.json")
    try:
        window = Window.from_dict(man["window"])
        if man["clock"] not in CLOCKS:
            raise ConfigError(f"clock must be one of {CLOCKS}, got {man['clock']!r}")
        for key, minimum in (("n", 1), ("R", 1), ("seed", 0)):
            check_int(man[key], f"manifest {key}", minimum)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed batch manifest: {exc}") from exc
    return man, window, man["clock"], man["n"]


def load_batch(directory) -> SampleBatch:
    """Rebuild a batch from ``manifest.json`` (see read_manifest) plus its
    ``values.npy``; the replication CSVs are never read.

    A manifest whose ``layout`` is not BATCH_LAYOUT raises ConfigError;
    so does one without the tag, which a batch saved before the ``npy-v1``
    layout has (it holds only CSVs), and a missing ``values.npy``.  A file
    that is truncated or not an NPY array, that holds another dtype or
    order than little-endian float64 in C order or another shape than
    (R, *window.shape, n) from the manifest, or that holds a non-finite
    value raises DimensionMismatchError naming the file.  The header
    is checked before the data is read, so a wrong shape allocates nothing.
    """
    directory = Path(directory)
    man, window, clock, n = read_manifest(directory)
    if "layout" not in man:
        raise ConfigError(
            f"batch directory {directory} has no layout tag: it was saved before "
            f"layout {BATCH_LAYOUT}, holds only CSVs and no values.npy, and cannot be read")
    if man["layout"] != BATCH_LAYOUT:
        raise ConfigError(f"batch directory {directory} has layout {man['layout']!r}, "
                          f"expected {BATCH_LAYOUT!r}")
    shape = (man["R"],) + window.shape + (n,)
    path = directory / "values.npy"
    try:
        with open(path, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not an NPY 1.0 file")
            found, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if (found, fortran, dtype) != (shape, False, np.dtype("<f8")):
                raise ValueError(
                    f"holds {dtype.str} values of shape {found} in "
                    f"{'Fortran' if fortran else 'C'} order, expected <f8 values "
                    f"of shape {shape} in C order")
            fh.seek(0)
            values = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"batch directory {directory} has no values.npy") from None
    except ValueError as exc:
        raise DimensionMismatchError(f"{path}: {exc}") from None
    if not np.isfinite(values).all():
        raise DimensionMismatchError(f"{path} holds a non-finite value")
    config = {k: man[k] for k in man if k not in ("seed", "R", "layout")}
    return SampleBatch(man["seed"], values, window, clock, config)
