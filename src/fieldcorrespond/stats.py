"""Moment-based distributional checks over replication batches.

Every check reduces to z-scores of paired per-replication differences:
the compared statistic is evaluated on the same replication for both
sides, the difference is averaged over replications, and the standard
error of that average is its leave-one-out jackknife SE, in closed form
sqrt(sum (d - mean)^2 / (R (R - 1))) = s/sqrt(R).  The pass threshold
starts from ``z_max`` (default 3) and is Bonferroni-corrected across all
comparisons in a report.

Degenerate comparisons (zero standard error) are flagged: they pass when
the difference itself is exactly zero (e.g. a deterministic batch) and
fail otherwise.  ``z_max`` must be a positive finite number
(ConfigError otherwise).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .algebra import ThetaTuple
from .errors import ConfigError, DimensionMismatchError, WindowError, check_threshold
from .fields import Window
from .gaussian import HurstSpec, SampleBatch, as_mixing, fbs_cov, sheet_points

# Tag of the SE arithmetic, recorded in resolved_config.json.
STATS_VERSION = "closed-se-v1"
# Doubles in one block of comparison rows (a row holds one value per
# replication): bounds the temporaries of the row reductions whatever the
# replication count.
ROW_BLOCK = 1 << 15


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


def jackknife_se_mean(d) -> float:
    """Leave-one-out jackknife SE of the sample mean of d (1-D array-like).

    Input that is not 1-D or has fewer than 2 values raises ConfigError.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ConfigError(f"jackknife needs a 1-D sample, got shape {d.shape}")
    if d.shape[0] < 2:
        raise ConfigError("jackknife needs at least 2 replications")
    return float(_mean_se(lambda sl: np.array([d], dtype=float), 1, len(d))[1][0])


def _mean_se(rows, count: int, r: int) -> tuple:
    """Means and jackknife SEs of ``count`` rows of per-replication values.

    ``rows(sl)`` returns rows ``sl`` as a new C-ordered (rows, R) array,
    which is then overwritten; rows are formed ``ROW_BLOCK`` doubles at a
    time.  Each row is centred on its mean, squared and summed in place.
    Every reduction runs along the contiguous last axis, which numpy sums
    pairwise just as it sums a 1-D array, so row i gives the bytes of
    ``d.mean()`` and ``jackknife_se_mean(d)`` for its values d.
    """
    mean, se = np.empty(count), np.empty(count)
    step = max(1, ROW_BLOCK // r)
    for start in range(0, count, step):
        sl = slice(start, min(start + step, count))
        d = rows(sl)
        mean[sl] = d.mean(axis=-1)
        d -= mean[sl, np.newaxis]
        np.square(d, out=d)
        se[sl] = np.sqrt(d.sum(axis=-1) / (r * (r - 1)))
    return mean, se


def _diff_row(label: str, est: float, se: float, reference: float = 0.0) -> ComparisonRow:
    est, se = float(est), float(se)
    if se == 0.0:
        z = 0.0 if est == reference else math.inf
        return ComparisonRow(label, est, reference, se, z, True)
    return ComparisonRow(label, est, reference, se, (est - reference) / se, False)


def _stack(fields) -> tuple:
    """(R, *window.shape, n) values, window and clock of a batch or of fields."""
    if isinstance(fields, SampleBatch):
        data, w, clock = fields.values, fields.window, fields.clock
    else:
        lst = list(fields)
        if len(lst) < 2:
            raise ConfigError("checks need at least 2 replications")
        w, clock, n = lst[0].window, lst[0].clock, lst[0].n
        for f in lst[1:]:
            if f.window != w or f.n != n or f.clock != clock:
                raise DimensionMismatchError("batch replications disagree in geometry")
        data = np.stack([f.values for f in lst])
    if data.shape[0] < 2:
        raise ConfigError("checks need at least 2 replications")
    return data, w, clock


def _by_row(x: np.ndarray) -> np.ndarray:
    """(R, ..., n) values as C-ordered (sites * n, R) rows, site-major."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1, x.shape[0])


def _part_rows(full: Window, part: Window, n: int) -> np.ndarray:
    """Indices, in the rows of ``full``, of the rows of ``part`` (site-major)."""
    offset = np.subtract(part.lo, full.lo)[:, np.newaxis]
    sites = np.ravel_multi_index(np.indices(part.shape).reshape(full.N, -1) + offset,
                                 full.shape)
    return (sites[:, np.newaxis] * n + np.arange(n)).ravel()


def _overlap(window: Window, shift: tuple) -> Window:
    """The sites t of ``window`` with t + shift in ``window`` too."""
    try:
        return window.intersection(window.shifted(tuple(-v for v in shift)))
    except WindowError as exc:
        raise WindowError(
            f"shift {shift} leaves no comparable sites in window {window}"
        ) from exc


def _site_pairs(m: int, cap: int):
    """Pairs i <= j of ``range(m)`` in lexicographic order, or at most
    ``cap`` of them at an even stride through that list.

    Entry p of the list is (i, j) with p = i m - i (i - 1) / 2 + j - i, so a
    chosen position maps straight to its pair; the list is never built.
    """
    total = m * (m + 1) // 2
    if total > cap:
        p = np.unique(np.linspace(0, total - 1, cap).astype(int))
    else:
        p = np.arange(total)

    def start(i):
        return i * (2 * m - i + 1) // 2

    # Row i starts at start(i); the float root is an estimate that the
    # exact integer comparisons then correct.
    i = np.floor((2 * m + 1 - np.sqrt((2 * m + 1) ** 2 - 8.0 * p)) / 2).astype(np.int64)
    i -= start(i) > p
    i += start(i + 1) <= p
    return list(zip(i.tolist(), (p - start(i) + i).tolist()))


def _comp_pairs(n: int):
    return list(itertools.combinations_with_replacement(range(n), 2))


def _shift_rows(x, window, n, shift, tag, max_pairs=60, mapped=None) -> list:
    """First/second moment comparison rows for one shift.

    ``x`` holds the batch as (sites * n, R) rows over ``window``; both
    sides of every comparison are read from it by row index.  ``mapped``,
    when given, replaces the base side by its own rows, one per base site
    and component.
    """
    shift = tuple(int(v) for v in shift)
    base = _overlap(window, shift)
    sites = list(base.sites())
    si = _part_rows(window, base.shifted(shift), n)
    bx, bi = (x, _part_rows(window, base, n)) if mapped is None else (
        mapped, np.arange(len(mapped)))
    r = x.shape[1]

    def diffs(sl):
        d = x[si[sl]]
        d -= bx[bi[sl]]
        return d

    mean, se = _mean_se(diffs, len(si), r)
    labels = (f"{tag} mean s={shift} t={t} k={k + 1}" for t in sites for k in range(n))
    rows = list(map(_diff_row, labels, mean, se))
    pairs = [(a, b, k, l) for a, b in _site_pairs(len(sites), max_pairs)
             for k, l in _comp_pairs(n)]
    i = np.array([a * n + k for a, _, k, _ in pairs])
    j = np.array([b * n + l for _, b, _, l in pairs])

    def products(sl):
        d = x[si[i[sl]]]
        d *= x[si[j[sl]]]
        p = bx[bi[i[sl]]]
        p *= bx[bi[j[sl]]]
        d -= p
        return d

    mean, se = _mean_se(products, len(pairs), r)
    labels = (f"{tag} cov s={shift} t={sites[a]},{sites[b]} k={k + 1},l={l + 1}"
              for a, b, k, l in pairs)
    return rows + list(map(_diff_row, labels, mean, se))


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
    z_max = check_threshold(z_max, "z_max")
    data, window, _ = _stack(fields)
    x, n = _by_row(data), data.shape[-1]
    rows = [row for s in shifts
            for row in _shift_rows(x, window, n, s, "stat", max_pairs)]
    return _finish("stationarity", rows, z_max)


def increment_stationarity_check(fields, shifts, z_max: float = 3.0, max_pairs: int = 60) -> EnsembleReport:
    """Stationarity of the unit-cube increment field."""
    z_max = check_threshold(z_max, "z_max")
    data, window, _ = _stack(fields)
    if any(s < 2 for s in window.shape):
        raise WindowError(f"window {window} too small for increments")
    r, n = data.shape[0], data.shape[-1]
    x = np.moveaxis(data, 0, -1)
    for axis in range(window.N):
        x = np.diff(x, axis=axis)
    x = np.ascontiguousarray(x).reshape(-1, r)
    inc_window = Window(tuple(l + 1 for l in window.lo), window.hi)
    rows = [row for s in shifts
            for row in _shift_rows(x, inc_window, n, s, "incr", max_pairs)]
    return _finish("increment-stationarity", rows, z_max)


def self_similarity_check(fields, shift, theta: ThetaTuple, z_max: float = 3.0,
                          max_pairs: int = 60) -> EnsembleReport:
    """Does the exponential-clock law rescale by e^{s*Theta} under shifts?

    Compares moments of Y_{e^(t+s)} against e^{s*Theta} Y_{e^t}; second
    moments of the mapped side are conjugated automatically because the
    map is applied per replication.
    """
    z_max = check_threshold(z_max, "z_max")
    data, window, clock = _stack(fields)
    if clock != "exponential":
        raise DimensionMismatchError(
            "self-similarity compares exponential-clock fields"
        )
    if data.shape[-1] != theta.n or window.N != theta.N:
        raise DimensionMismatchError("tuple does not match the batch geometry")
    shift = tuple(int(v) for v in shift)
    r, n = data.shape[0], data.shape[-1]
    base = _overlap(window, shift)
    # Each replication's base values, (sites, n), times e^{s*Theta}^T.
    sl = tuple(slice(a - b, a - b + m) for a, b, m in zip(base.lo, window.lo, base.shape))
    mapped = data[(slice(None),) + sl].reshape(r, -1, n) @ theta.exp(shift).T
    rows = _shift_rows(_by_row(data), window, n, shift, "selfsim", max_pairs,
                       _by_row(mapped))
    return _finish("self-similarity", rows, z_max)


def fidelity_check(fields, hurst: HurstSpec, mixing, n_pairs: int = 10,
                   z_max: float = 3.0) -> EnsembleReport:
    """Empirical second moments against the closed-form sheet covariance.

    Site pairs are chosen deterministically (even stride through the
    lexicographic pair list).  No Bonferroni correction: the contract is
    "within z_max jackknife SEs" per pair.
    """
    z_max = check_threshold(z_max, "z_max")
    data, window, clock = _stack(fields)
    r, n = data.shape[0], data.shape[-1]
    if hurst.n != n or hurst.N != window.N:
        raise DimensionMismatchError("Hurst spec does not match the batch geometry")
    a = as_mixing(mixing, n)
    pts = sheet_points(window, clock)
    labels, refs, cols = [], [], []
    for i, j in _site_pairs(pts.shape[0], n_pairs):
        comp_cov = np.array(
            [fbs_cov(pts[i], pts[j], hurst.row(m)) for m in range(n)]
        )
        for k, l in _comp_pairs(n):
            labels.append(f"fid cov t={i},{j} k={k + 1},l={l + 1}")
            refs.append(float(np.sum(a[k] * a[l] * comp_cov)))
            cols += [i * n + k, j * n + l]
    # Only the columns the pairs use are gathered into rows.
    used, pos = np.unique(cols, return_inverse=True)
    x = np.ascontiguousarray(data.reshape(r, -1)[:, used].T)
    left, right = pos.reshape(-1, 2).T

    def products(sl):
        d = x[left[sl]]
        d *= x[right[sl]]
        return d

    mean, se = _mean_se(products, len(labels), r)
    rows = list(map(_diff_row, labels, mean, se, refs))
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
    _, mean_se = _mean_se(lambda sl: flat[:, sl].T.copy(), q, r)
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
