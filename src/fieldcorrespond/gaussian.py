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

Randomness contract: every draw is keyed by (seed, replication index,
component index) through ``numpy.random.SeedSequence`` spawn keys, so any
subset of replications can be reproduced byte-identically.  ``substream``
is the reference for one cell.  The sampler derives the same streams
without building a ``SeedSequence`` per cell: it repeats numpy's seeding
arithmetic (the SeedSequence pool hash, ``generate_state(4, uint64)`` and
PCG64's seeding step) on arrays over a whole block of cells, sets each
resulting PCG64 state on one reused generator and draws its normals.  The
pool after the seed words is common to every cell, so it is taken once
from numpy's ``SeedSequence(seed)``; only the spawn-key words and the
output hash vary per cell.
"""

from __future__ import annotations

import copy
import os
import threading
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
SAMPLER_VERSION = "kron-v1"
# Tag of the batch directory layout, recorded in batch manifests: the
# values live in one ``values.npy``, and the replication CSVs are an export.
BATCH_LAYOUT = "npy-v1"
# Largest number of standard normals drawn and transformed together; a
# bound in doubles keeps the temporaries of one block small whatever the
# window size.
DRAW_BLOCK = 1 << 12
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


def substream(seed: int, replication: int, component: int) -> np.random.Generator:
    """Deterministic generator for one (replication, component) cell.

    The reference definition of the streams: ``SheetSampler`` draws cell
    (r, k) from the same stream, derived in bulk (see ``stream_states``).
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(replication), int(component)))
    return np.random.default_rng(ss)


# numpy.random.SeedSequence: pool size in 32-bit words and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64: 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
# Largest replication index: the block derivation holds indices in uint64.
MAX_REPLICATION = (1 << 64) - 1

# The helpers below take Python ints or uint64 arrays of 32-bit values
# alike: no product exceeds 64 bits, and every result is masked to 32.


def _words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int (0 is one word)."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash_const(init: int, mult: int, steps: int) -> int:
    """The running hash constant after ``steps`` hash steps.

    Each step multiplies it by ``mult``, whatever the data hashed.
    """
    return (init * pow(mult, steps, 1 << 32)) & _M32


# generate_state(4, np.uint64) hashes eight pool words, cycling the pool;
# step i xors with constant i and multiplies by constant i + 1.
_GENERATE_CHAIN = tuple(
    (_hash_const(_INIT_B, _MULT_B, i), _hash_const(_INIT_B, _MULT_B, i + 1))
    for i in range(2 * _POOL_SIZE)
)


def _hash(value, const: int, nxt: int):
    """One SeedSequence hash step, given its xor and multiply constants."""
    h = ((value ^ const) * nxt) & _M32
    return h ^ (h >> 16)


def _absorb(pool, const: int, words) -> tuple:
    """Mix entropy words past the pool size into every pool word.

    Each pool word p becomes mix(p, hash(w)) with SeedSequence's mix, the
    hash constant advancing once per pool word.
    """
    for w in words:
        mixed = []
        for p in pool:
            nxt = (const * _MULT_A) & _M32
            r = (_MIX_L * p - _MIX_R * _hash(w, const, nxt)) & _M32
            mixed.append(r ^ (r >> 16))
            const = nxt
        pool = mixed
    return pool, const


def _seed_pool(seed: int) -> tuple:
    """The pool of ``SeedSequence(seed, spawn_key=...)`` before the key.

    A spawn key makes SeedSequence zero-pad the seed words to the pool
    size; an unspawned ``SeedSequence(seed)`` hashes zeros into the same
    pool positions, so its pool is this one.  Returns the pool and the
    hash constant after the seed words: one hash step for each of the
    first pool-size words and for each all-pairs mixing step (pool size
    squared in all), then one per pool word for each further seed word.
    """
    extra = max(0, len(_words(seed)) - _POOL_SIZE)
    steps = _POOL_SIZE ** 2 + _POOL_SIZE * extra
    pool = np.random.SeedSequence(seed).pool.tolist()
    return tuple(pool), _hash_const(_INIT_A, _MULT_A, steps)


def _pcg64_words(pool: list) -> list:
    """``generate_state(4, np.uint64)`` of a pool with its key absorbed.

    Eight 32-bit outputs, read pairwise as little-endian 64-bit words.
    """
    half = [_hash(p, const, nxt) for (const, nxt), p in zip(_GENERATE_CHAIN, pool * 2)]
    return [half[i] | (half[i + 1] << 32) for i in range(0, 2 * _POOL_SIZE, 2)]


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> tuple:
    """PCG64's seeding step: (state, inc) from its four seed words."""
    inc = (((w2 << 64 | w3) << 1) | 1) & _M128
    return ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128, inc


def stream_states(seed: int, replications, n: int) -> list:
    """PCG64 (state, inc) of ``substream(seed, r, k)`` for every cell.

    Cells are ordered replication-major, components 0..n-1 within each.
    One replication is derived with Python ints; more are derived with
    uint64 arrays over all cells at once, one pass per spawn-key length
    (an index above 2^32 - 1 takes two words).
    """
    pool, const = _seed_pool(seed)
    if len(replications) == 1:
        pool, const = _absorb(pool, const, _words(replications[0]))
        return [_pcg64_state(*_pcg64_words(_absorb(pool, const, [k])[0]))
                for k in range(n)]
    reps = np.array(replications, dtype=np.uint64)[:, np.newaxis]
    comps = np.arange(n, dtype=np.uint64)[np.newaxis, :]
    words = np.empty((4, len(replications), n), dtype=np.uint64)
    wide = reps[:, 0] > _M32
    for sel, size in ((~wide, 1), (wide, 2)):
        if sel.any():
            r = reps[sel]
            key_pool, key_const = _absorb(pool, const, [r & _M32, r >> 32][:size])
            words[:, sel] = _pcg64_words(_absorb(key_pool, key_const, [comps])[0])
    return [_pcg64_state(*w) for w in zip(*(a.ravel().tolist() for a in words))]


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
    Draws reuse one generator, re-seeded per cell under a lock.
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
        self._gen = np.random.Generator(np.random.PCG64(0))
        self._lock = threading.Lock()

    def sample(self, seed: int, replication: int = 0) -> FieldWindow:
        """Replication ``replication`` of the batch drawn from ``seed``."""
        return self.sample_many(seed, (replication,))[0]

    def sample_many(self, seed: int, replications) -> list:
        """One field per index in ``replications``, drawn as one block.

        Field i equals ``sample(seed, replications[i])`` byte for byte:
        cell (r, k) draws from ``substream(seed, r, k)``.
        """
        seed = check_int(seed, "seed", 0)
        reps = [check_int(r, "replication index", 0) for r in replications]
        if any(r > MAX_REPLICATION for r in reps):
            raise ConfigError(f"replication indices must be <= {MAX_REPLICATION}")
        if not reps:
            return []
        return [
            FieldWindow(self.window, v, self.clock, {"seed": seed, "replication": r})
            for v, r in zip(self._draw(seed, reps), reps)
        ]

    def blocks(self, seed: int, replications: int):
        """Replications 0 .. replications-1 as successive (start, values) pairs.

        ``values`` is a read-only (count, *window.shape, n) array whose
        entry i is replication start + i, the values of
        ``sample(seed, start + i)`` byte for byte.  A block holds at most
        ``DRAW_BLOCK`` normals (at least one replication), so a caller that
        consumes the blocks one at a time keeps only one block of draws
        alive.
        """
        seed = check_int(seed, "seed", 0)
        replications = check_int(replications, "replications", 0)
        size = max(1, DRAW_BLOCK // (self.hurst.n * self.window.volume))
        for start in range(0, replications, size):
            yield start, self._draw(seed, range(start, min(start + size, replications)))

    def _draw(self, seed: int, reps) -> np.ndarray:
        """Read-only (len(reps), *window.shape, n) values of checked indices."""
        n, volume, count = self.hurst.n, self.window.volume, len(reps)
        x = np.empty((count, n, volume))
        bitgen = self._gen.bit_generator
        with self._lock:
            for row, (state, inc) in zip(x.reshape(-1, volume),
                                         stream_states(seed, reps, n)):
                bitgen.state = {"bit_generator": "PCG64",
                                "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
                self._gen.standard_normal(out=row)
        # Mode product along the leading window axis of every component,
        # then rotate that axis to the back; after N steps the axes are in
        # order again.
        for m, f in zip(self.window.shape, self._factors):
            x = np.matmul(f, x.reshape(count, n, m, -1)).transpose(0, 1, 3, 2)
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
    values = np.empty((replications,) + window.shape + (hurst.n,))
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
