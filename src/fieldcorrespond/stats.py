"""Moment-based distributional checks over replication batches.

Every check reduces to z-scores of paired per-replication differences:
the compared statistic is evaluated on the same replication for both
sides, the difference is averaged over replications, and the standard
error of that average comes from the leave-one-out jackknife (for a plain
mean this equals the classic s/sqrt(R)).  The pass threshold starts from
``z_max`` (default 3) and is Bonferroni-corrected across all comparisons
in a report.

Degenerate comparisons (zero standard error) are flagged: they pass when
the difference itself is exactly zero (e.g. a deterministic batch) and
fail otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .algebra import ThetaTuple
from .errors import ConfigError, DimensionMismatchError, WindowError
from .fields import FieldWindow, Window
from .gaussian import HurstSpec, as_mixing, fbs_cov, sheet_points


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    estimate: float
    reference: float
    se: float
    z: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "estimate": self.estimate,
            "reference": self.reference,
            "se": self.se,
            "z": None if math.isinf(self.z) else self.z,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class EnsembleReport:
    check: str
    z_max: float
    z_threshold: float
    comparisons: tuple
    passed: bool
    degenerate: bool

    @property
    def n_comparisons(self) -> int:
        return len(self.comparisons)

    @property
    def max_abs_z(self) -> float:
        finite = [abs(c.z) for c in self.comparisons if math.isfinite(c.z)]
        if any(math.isinf(c.z) for c in self.comparisons):
            return math.inf
        return max(finite) if finite else 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "z_max": self.z_max,
            "z_threshold": self.z_threshold,
            "n_comparisons": self.n_comparisons,
            "max_abs_z": None if math.isinf(self.max_abs_z) else self.max_abs_z,
            "passed": self.passed,
            "degenerate": self.degenerate,
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


def bonferroni_threshold(z_max: float, m: int) -> float:
    """z threshold whose family-wise level matches a single |z| <= z_max test."""
    if m <= 1:
        return float(z_max)
    p = math.erfc(z_max / math.sqrt(2.0)) / (2.0 * m)  # lower tail keeps digits
    return math.inf if p == 0.0 else -NormalDist().inv_cdf(p)


def jackknife_se_mean(d: np.ndarray) -> float:
    """Leave-one-out jackknife SE of the sample mean of d (1-D array)."""
    r = d.shape[0]
    if r < 2:
        raise ConfigError("jackknife needs at least 2 replications")
    loo = (d.sum() - d) / (r - 1)
    return float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))


def _diff_row(label: str, d: np.ndarray, reference: float = 0.0) -> ComparisonRow:
    est = float(d.mean())
    se = jackknife_se_mean(d)
    if se == 0.0:
        z = 0.0 if est == reference else math.inf
        return ComparisonRow(label, est, reference, se, z, True)
    return ComparisonRow(label, est, reference, se, (est - reference) / se, False)


def _stack(fields) -> tuple:
    if isinstance(fields, (list, tuple)):
        lst = list(fields)
    else:
        lst = list(fields.fields)  # SampleBatch
    if len(lst) < 2:
        raise ConfigError("checks need at least 2 replications")
    w = lst[0].window
    clock = lst[0].clock
    n = lst[0].n
    for f in lst[1:]:
        if f.window != w or f.n != n or f.clock != clock:
            raise DimensionMismatchError("batch replications disagree in geometry")
    data = np.stack([f.values for f in lst])
    return data, w, clock


def _slab(data: np.ndarray, full: Window, part: Window) -> np.ndarray:
    sl = (slice(None),) + tuple(
        slice(a - b, a - b + s) for a, b, s in zip(part.lo, full.lo, part.shape)
    )
    r = data.shape[0]
    return data[sl].reshape(r, -1, data.shape[-1])


def _site_pairs(m: int, cap: int):
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    if len(pairs) <= cap:
        return pairs
    idx = np.unique(np.linspace(0, len(pairs) - 1, cap).astype(int))
    return [pairs[i] for i in idx]


def _comp_pairs(n: int):
    return list(itertools.combinations_with_replacement(range(n), 2))


def _shift_rows(data, window, shift, rows, tag, mapped=None, max_pairs=60):
    """Append first/second moment comparison rows for one shift."""
    shift = tuple(int(v) for v in shift)
    try:
        base = window.intersection(window.shifted(tuple(-v for v in shift)))
    except WindowError as exc:
        raise WindowError(
            f"shift {shift} leaves no comparable sites in window {window}"
        ) from exc
    sites = list(base.sites())
    a_shift = _slab(data, window, base.shifted(shift))
    a_base = _slab(data, window, base)
    if mapped is not None:
        a_base = a_base @ mapped.T
    n = data.shape[-1]
    for a, t in enumerate(sites):
        for k in range(n):
            d = a_shift[:, a, k] - a_base[:, a, k]
            rows.append(_diff_row(f"{tag} mean s={shift} t={t} k={k + 1}", d))
    for a, b in _site_pairs(len(sites), max_pairs):
        for k, l in _comp_pairs(n):
            d = a_shift[:, a, k] * a_shift[:, b, l] - a_base[:, a, k] * a_base[:, b, l]
            rows.append(
                _diff_row(
                    f"{tag} cov s={shift} t={sites[a]},{sites[b]} k={k + 1},l={l + 1}",
                    d,
                )
            )


def _finish(check: str, rows, z_max: float, threshold: float = None) -> EnsembleReport:
    thr = bonferroni_threshold(z_max, len(rows)) if threshold is None else threshold
    passed = all(
        (c.degenerate and c.z == 0.0) or (not c.degenerate and abs(c.z) <= thr)
        for c in rows
    )
    return EnsembleReport(
        check=check,
        z_max=float(z_max),
        z_threshold=float(thr),
        comparisons=tuple(rows),
        passed=bool(passed),
        degenerate=any(c.degenerate for c in rows),
    )


def stationarity_check(fields, shifts, z_max: float = 3.0, max_pairs: int = 60) -> EnsembleReport:
    """Are first and second moments shift-invariant across the window?

    Compares moments of {X_t} against {X_{t+s}} for each shift; a
    stationary batch passes, a sheet with growing variance fails.
    """
    data, window, _ = _stack(fields)
    rows = []
    for s in shifts:
        _shift_rows(data, window, s, rows, "stat", max_pairs=max_pairs)
    return _finish("stationarity", rows, z_max)


def increment_stationarity_check(fields, shifts, z_max: float = 3.0, max_pairs: int = 60) -> EnsembleReport:
    """Stationarity of the unit-cube increment field."""
    data, window, _ = _stack(fields)
    if any(s < 2 for s in window.shape):
        raise WindowError(f"window {window} too small for increments")
    for axis in range(window.N):
        data = np.diff(data, axis=axis + 1)
    inc_window = Window(tuple(l + 1 for l in window.lo), window.hi)
    rows = []
    for s in shifts:
        _shift_rows(data, inc_window, s, rows, "incr", max_pairs=max_pairs)
    return _finish("increment-stationarity", rows, z_max)


def self_similarity_check(fields, shift, theta: ThetaTuple, z_max: float = 3.0,
                          max_pairs: int = 60) -> EnsembleReport:
    """Does the exponential-clock law rescale by e^{s*Theta} under shifts?

    Compares moments of Y_{e^(t+s)} against e^{s*Theta} Y_{e^t}; second
    moments of the mapped side are conjugated automatically because the
    map is applied per replication.
    """
    data, window, clock = _stack(fields)
    if clock != "exponential":
        raise DimensionMismatchError(
            "self-similarity compares exponential-clock fields"
        )
    if data.shape[-1] != theta.n or window.N != theta.N:
        raise DimensionMismatchError("tuple does not match the batch geometry")
    e = theta.exp(tuple(int(v) for v in shift))
    rows = []
    _shift_rows(data, window, shift, rows, "selfsim", mapped=e, max_pairs=max_pairs)
    return _finish("self-similarity", rows, z_max)


def fidelity_check(fields, hurst: HurstSpec, mixing, n_pairs: int = 10,
                   z_max: float = 3.0) -> EnsembleReport:
    """Empirical second moments against the closed-form sheet covariance.

    Site pairs are chosen deterministically (even stride through the
    lexicographic pair list).  No Bonferroni correction: the contract is
    "within z_max jackknife SEs" per pair.
    """
    data, window, clock = _stack(fields)
    n = data.shape[-1]
    if hurst.n != n or hurst.N != window.N:
        raise DimensionMismatchError("Hurst spec does not match the batch geometry")
    a = as_mixing(mixing, n)
    pts = sheet_points(window, clock)
    flat = data.reshape(data.shape[0], -1, n)
    rows = []
    for i, j in _site_pairs(pts.shape[0], n_pairs):
        comp_cov = np.array(
            [fbs_cov(pts[i], pts[j], hurst.row(m)) for m in range(n)]
        )
        for k, l in _comp_pairs(n):
            ref = float(np.sum(a[k] * a[l] * comp_cov))
            d = flat[:, i, k] * flat[:, j, l]
            rows.append(
                _diff_row(f"fid cov t={i},{j} k={k + 1},l={l + 1}", d, reference=ref)
            )
    return _finish("fidelity", rows, z_max, threshold=float(z_max))


@dataclass(frozen=True)
class MomentSummary:
    """Sample moments across replications at chosen sites, with jackknife SEs.

    ``mean``/``mean_se`` have shape (sites, n); ``cov``/``cov_se`` are
    (q, q) with q = sites * n, site-major component-minor ordering.
    """

    sites: tuple
    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray
    degenerate: bool


def empirical_moments(fields, sites=None) -> MomentSummary:
    """Sample means and covariances at ``sites`` (default all), with jackknife SEs.

    Leaving replication k out of the centered data C turns C^T C into
    C^T C - R/(R-1) c_k c_k^T, so the covariance jackknife is the spread of
    the products c_k c_k^T: a closed form in C^T C and (C*C)^T (C*C)
    (Efron & Stein, Ann. Statist. 1981) using O(q^2 + R q) memory.
    """
    data, window, _ = _stack(fields)
    r = data.shape[0]
    if r < 3:
        raise ConfigError("moment summary needs at least 3 replications")
    n = data.shape[-1]
    if sites is None:
        sites = list(window.sites())
    sites = [tuple(int(v) for v in t) for t in sites]
    idx = [window.index(t) for t in sites]
    d = np.stack([data[(slice(None),) + i] for i in idx], axis=1)  # (R, m, n)
    m = len(sites)
    q = m * n
    flat = d.reshape(r, q)
    mean = flat.mean(axis=0)
    mean_se = np.array([jackknife_se_mean(flat[:, c]) for c in range(q)])
    centered = flat - mean
    s2 = centered.T @ centered
    cov = s2 / (r - 1)
    sq = centered * centered
    spread = np.maximum(sq.T @ sq - s2 * s2 / r, 0.0)
    cov_se = r / ((r - 1) * (r - 2)) * np.sqrt((r - 1) / r * spread)
    return MomentSummary(
        sites=tuple(sites),
        mean=mean.reshape(m, n),
        mean_se=mean_se.reshape(m, n),
        cov=cov,
        cov_se=cov_se,
        degenerate=bool(np.any(mean_se == 0.0) or np.any(cov_se == 0.0)),
    )
