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
subset of replications can be reproduced byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonio import dump_json, load_json
from .errors import ConfigError, DimensionMismatchError, NumericRangeError
from .fields import FieldWindow, Window, read_csv, write_csv

# Largest site count for one Gram-matrix factorization (one window axis
# when sampling).
GRID_CAP = 4096
# Tag of the sampling algorithm, recorded in batch manifests: a change
# that alters the draws for a given seed gets a new tag.
SAMPLER_VERSION = "kron-v1"
# Exponential-clock sites e^{t_j} overflow the usable double range well
# before |t_j| reaches 300; the model keeps a conservative margin.
EXP_CLOCK_LIMIT = 30

# Negative eigenvalues beyond this relative tolerance mean the matrix is
# not a covariance; below it they are clipped to zero.
INDEFINITE_RTOL = 1e-10


@dataclass(frozen=True)
class HurstSpec:
    """Per-component Hurst vectors: row k gives H^(k) for component k."""

    H: np.ndarray

    def __post_init__(self):
        h = np.array(self.H, dtype=float)
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
    """Deterministic generator for one (replication, component) cell."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(replication), int(component)))
    return np.random.default_rng(ss)


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


def as_mixing(a, n: int) -> np.ndarray:
    a = np.array(a, dtype=float)
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

    def sample(self, seed: int, replication: int = 0) -> FieldWindow:
        n, volume = self.hurst.n, self.window.volume
        x = np.empty((n, volume))
        for k in range(n):
            x[k] = substream(seed, replication, k).standard_normal(volume)
        # Mode product along the leading window axis of every component,
        # then rotate that axis to the back; after N steps the axes are in
        # order again.
        for m, f in zip(self.window.shape, self._factors):
            x = np.matmul(f, x.reshape(n, m, -1)).transpose(0, 2, 1)
        vals = x.reshape(n, volume).T @ self.mixing.T
        meta = {"seed": int(seed), "replication": int(replication)}
        return FieldWindow(self.window, vals.reshape(self.window.shape + (n,)),
                           self.clock, meta)


@dataclass(frozen=True)
class SampleBatch:
    """R replications of one field configuration, plus the manifest data."""

    seed: int
    fields: list
    config: dict = field(default_factory=dict)

    @property
    def replications(self) -> int:
        return len(self.fields)

    def manifest(self) -> dict:
        man = {"seed": int(self.seed), "R": self.replications}
        man.update(self.config)
        return man

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        dump_json(self.manifest(), directory / "manifest.json")
        for r, f in enumerate(self.fields):
            write_csv(f, directory / f"rep_{r:05d}.csv")


def sample_sheet_batch(
    mixing, hurst: HurstSpec, window: Window, clock: str, seed: int,
    replications: int,
) -> SampleBatch:
    """Batch of independent sheet draws; deterministic in (seed, config)."""
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    sampler = SheetSampler(mixing, hurst, window, clock)
    fields = [sampler.sample(seed, r) for r in range(replications)]
    config = {
        "H": hurst.H.tolist(),
        "A": sampler.mixing.tolist(),
        "window": window.to_dict(),
        "clock": clock,
        "n": hurst.n,
        "N": hurst.N,
        "sampler": SAMPLER_VERSION,
    }
    return SampleBatch(seed=int(seed), fields=fields, config=config)


def load_batch(directory) -> SampleBatch:
    """Rebuild a batch from ``manifest.json`` plus its replication CSVs."""
    directory = Path(directory)
    man = load_json(directory / "manifest.json")
    try:
        window = Window.from_dict(man["window"])
        n = int(man["n"])
        clock = man["clock"]
        r_count = int(man["R"])
        seed = int(man["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed batch manifest: {exc}") from exc
    fields = []
    for r in range(r_count):
        path = directory / f"rep_{r:05d}.csv"
        try:
            fields.append(read_csv(path, window, n, clock))
        except FileNotFoundError:
            raise ConfigError(f"batch directory is missing {path.name}") from None
    config = {k: man[k] for k in man if k not in ("seed", "R")}
    return SampleBatch(seed=seed, fields=fields, config=config)
