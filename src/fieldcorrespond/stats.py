"""Moment-based distributional checks over replication batches.

Every check reduces to z-scores of paired per-replication differences:
the compared statistic is evaluated on the same replication for both
sides, the difference is averaged over replications, and the standard
error of that average is its leave-one-out jackknife SE, in closed form
sqrt(sum (d - mean)^2 / (R (R - 1))) = s/sqrt(R).  The pass threshold
starts from ``z_max`` (default 3) and is Bonferroni-corrected across all
comparisons in a report.

A report holds its comparisons as columns: a tuple of labels and
read-only arrays of estimates, references, SEs and z-scores, from which
the pass verdict, the degenerate flag and max |z| are read.  Degenerate
comparisons (zero standard error) are flagged: they pass when the
difference itself is exactly zero (e.g. a deterministic batch) and fail
otherwise.  ``z_max`` must be a positive finite number (ConfigError
otherwise).

The stationarity, increment-stationarity and self-similarity checks
compute their rows by one of two routes, picked from the shapes alone:

* Rows: each comparison row d (R values) is formed and reduced on its own,
  in blocks of ``ROW_BLOCK`` doubles.
* Gram: a row needs only sum d and sum d^2, and for d = x_a - x_c or
  d = x_a x_b - x_c x_e these are entries of a few matrices built once per
  check with BLAS: the row sums, the Gram X X^T of the q value rows, the
  Gram of their squares, and per shift P P^T with P = X_shifted * X_base.

The Gram route costs about q^2 R multiply-adds and q^2 doubles, the row
route about ten passes over R values per row; a check takes the Gram route
when it needs at most ``GRAM_ENTRIES_PER_ROW`` Gram entries per row (small
windows, such as q = 50 at R = 10^4), the rows otherwise (q = 512).  The
Gram route's sum d^2 - (sum d)^2 / R cancels: a row where it is at most
``GRAM_RTOL`` of the size of its terms, zero-variance rows included, is
recomputed by the row route, so a constant difference still gets
se == 0.0 exactly.  Elsewhere the two routes agree to rounding (about
1e-14 of an SE on the estimates), not byte for byte; ``STATS_VERSION``
tags this arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .algebra import ThetaTuple
from .errors import ConfigError, DimensionMismatchError, WindowError, check_threshold
from .fields import Window
from .gaussian import HurstSpec, SampleBatch, as_mixing, build_cov_matrix, sheet_points

# Tag of the comparison arithmetic, recorded in resolved_config.json.
STATS_VERSION = "gram-v1"
# Doubles in one block of comparison rows (a row holds one value per
# replication): bounds the temporaries of the row reductions whatever the
# replication count.
ROW_BLOCK = 1 << 15
# Route choice: a check takes the Gram route when its Gram entries number
# at most this many per comparison row.  An entry costs one BLAS
# multiply-add per replication, a row about ten numpy passes over its
# replications; with OpenBLAS on one x86-64 core the two routes took the
# same time at 45 to 70 entries per row, over windows of q = 30 to 512
# rows and R = 2,000 to 10^4 replications.
GRAM_ENTRIES_PER_ROW = 48
# Doubles in one block of replications on the Gram route: bounds the
# temporaries of its products whatever the replication count.
GRAM_BLOCK = 1 << 15
# A Gram-route row whose variance sum is at most this fraction of the size
# of its terms is recomputed by the row route.  Rounding leaves a zero
# variance within a few R * eps of that size, far below; a kept row has
# lost at most 5 of the 16 digits of its variance.
GRAM_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """A check's comparisons as columns: row k is ``labels[k]`` with entry k
    of the read-only arrays ``estimate``, ``reference``, ``se`` and ``z``.

    A row with se == 0 is degenerate; it passes when its z is 0, any other
    row when |z| <= ``z_threshold`` (so a NaN z fails).
    """

    check: str
    z_max: float
    z_threshold: float
    labels: tuple
    estimate: np.ndarray
    reference: np.ndarray
    se: np.ndarray
    z: np.ndarray

    @property
    def n_comparisons(self) -> int:
        return len(self.labels)

    @property
    def passed(self) -> bool:
        ok = np.where(self.se == 0.0, self.z == 0.0, np.abs(self.z) <= self.z_threshold)
        return bool(ok.all())

    @property
    def degenerate(self) -> bool:
        return bool((self.se == 0.0).any())

    @property
    def max_abs_z(self) -> float:
        """The largest |z| (inf if any z is infinite), NaN z ignored; 0.0
        without rows."""
        return float(np.max(np.abs(self.z), initial=0.0, where=~np.isnan(self.z)))

    def to_dict(self) -> dict:
        max_abs_z = self.max_abs_z
        columns = zip(self.labels, self.estimate.tolist(), self.reference.tolist(),
                      self.se.tolist(), self.z.tolist(), (self.se == 0.0).tolist())
        return {
            "check": self.check,
            "z_max": self.z_max,
            "z_threshold": self.z_threshold,
            "n_comparisons": self.n_comparisons,
            "max_abs_z": None if math.isinf(max_abs_z) else max_abs_z,
            "passed": self.passed,
            "degenerate": self.degenerate,
            "comparisons": [
                {"label": label, "estimate": est, "reference": ref, "se": se,
                 "z": None if math.isinf(z) else z, "degenerate": degenerate}
                for label, est, ref, se, z, degenerate in columns
            ],
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


def _shift_plan(window, n, shift, tag, max_pairs, sides=None) -> tuple:
    """``(labels, a, c, i, j)``: the comparison rows of one shift.

    Rows index a (sites * n, R) array z of per-replication values.  Mean
    row k compares z[a[k]] (shifted side) with z[c[k]] (base side);
    product row p compares z[a[i[p]]] z[a[j[p]]] with z[c[i[p]]] z[c[j[p]]].
    The rows (a, c) of the shifted and base sites are those in ``window``
    unless ``sides`` gives them.
    """
    shift = tuple(int(v) for v in shift)
    base = _overlap(window, shift)
    sites = list(base.sites())
    a, c = sides or (_part_rows(window, base.shifted(shift), n), _part_rows(window, base, n))
    pairs = [(s, t, k, l) for s, t in _site_pairs(len(sites), max_pairs)
             for k, l in _comp_pairs(n)]
    i = np.array([s * n + k for s, _, k, _ in pairs], dtype=np.intp)
    j = np.array([t * n + l for _, t, _, l in pairs], dtype=np.intp)
    # Each site and the shift are formatted once, not once per row.
    at = [str(t) for t in sites]
    mean, cov = f"{tag} mean s={shift} t=", f"{tag} cov s={shift} t="
    labels = [f"{mean}{t} k={k + 1}" for t in at for k in range(n)]
    labels += [f"{cov}{at[s]},{at[t]} k={k + 1},l={l + 1}" for s, t, k, l in pairs]
    return labels, a, c, i, j


def _row_stats(z, a, c, b=None, e=None) -> tuple:
    """Means and SEs, row by row, of z[a] - z[c], or of z[a] z[b] - z[c] z[e]
    when ``b`` and ``e`` are given; z holds one row per index."""
    def rows(sl):
        d = z[a[sl]]
        if b is None:
            d -= z[c[sl]]
        else:
            d *= z[b[sl]]
            p = z[c[sl]]
            p *= z[e[sl]]
            d -= p
        return d

    return _mean_se(rows, len(a), z.shape[1])


def _gram_products(values, r, q, plans) -> tuple:
    """``(sums, gram, gram_sq, crosses)`` of ``r`` replications of ``values``.

    With X the (q, R) rows: the row sums, X X^T, (X*X)(X*X)^T, and per
    plan P P^T with P = X[a] * X[c] row by row.  They are accumulated over
    blocks of replications, each read as rows of at most ``GRAM_BLOCK``
    doubles, so no temporary grows with R.
    """
    sums, gram, gram_sq = np.zeros(q), np.zeros((q, q)), np.zeros((q, q))
    crosses = [np.zeros((len(a), len(a))) for _, a, _, _, _ in plans]
    step = max(1, GRAM_BLOCK // q)
    for start in range(0, r, step):
        x = values(slice(start, start + step)).T.copy()
        sums += x.sum(axis=1)
        gram += x @ x.T
        for (_, a, c, _, _), cross in zip(plans, crosses):
            p = x[a]
            p *= x[c]
            cross += p @ p.T
        np.square(x, out=x)
        gram_sq += x @ x.T
    return sums, gram, gram_sq, crosses


def _gram_plan_rows(plan, r, sums, gram, gram_sq, cross, rows) -> tuple:
    """Means and SEs of a plan's rows from the Gram products of R
    replications (``_gram_products``), by the row route over ``rows()``,
    the (q, R) rows, for those whose Gram variance is within rounding of
    zero.

    For d = x_a - x_c, sum d = sums[a] - sums[c] and sum d^2 =
    gram[a, a] + gram[c, c] - 2 gram[a, c].  For d = x_a x_b - x_c x_e,
    sum d = gram[a, b] - gram[c, e] and sum d^2 = gram_sq[a, b] +
    gram_sq[c, e] - 2 cross[i, j].
    """
    _, a, c, i, j = plan
    ai, aj, ci, cj = a[i], a[j], c[i], c[j]
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.concatenate([sums[a] - sums[c], gram[ai, aj] - gram[ci, cj]])
        outer = np.concatenate([gram[a, a] + gram[c, c], gram_sq[ai, aj] + gram_sq[ci, cj]])
        cross = np.concatenate([gram[a, c], cross[i, j]])
        mean = total / r
        var = outer - 2.0 * cross - total * mean
        # Every term of var is at most outer + 2 |cross| in size, so rounding
        # leaves var within a few R eps of that; a row below GRAM_RTOL of it
        # (zero variance, most digits cancelled, or an overflow) takes the
        # row route.
        bad = np.flatnonzero(~(var > GRAM_RTOL * (outer + 2.0 * np.abs(cross))))
        se = np.sqrt(np.where(var > 0.0, var, 0.0) / (r * (r - 1)))
    if len(bad):
        m, z = len(a), rows()
        mean_rows, prod_rows = bad[bad < m], bad[bad >= m] - m
        mean[mean_rows], se[mean_rows] = _row_stats(z, a[mean_rows], c[mean_rows])
        mean[m + prod_rows], se[m + prod_rows] = _row_stats(
            z, ai[prod_rows], ci[prod_rows], aj[prod_rows], cj[prod_rows])
    return mean, se


def _compare(values, r, plans) -> tuple:
    """``(labels, mean, se)`` of the rows of ``plans``, in order.

    ``values(sl)`` returns the (replications sl, q) values, whose column k
    is row index k of the plans.  The route follows from the shapes alone
    (module docstring): Gram products when they cost less than the rows,
    the rows otherwise.  The rows, all R values transposed to (q, R), are
    built only when a route needs them.
    """
    rows = functools.cache(lambda: np.ascontiguousarray(values(slice(None)).T))
    q = values(slice(0, 1)).shape[1]
    n_rows = sum(len(a) + len(i) for _, a, _, i, _ in plans)
    entries = 2 * q * q + sum(len(a) ** 2 for _, a, _, _, _ in plans)
    if entries <= GRAM_ENTRIES_PER_ROW * n_rows:
        with np.errstate(over="ignore", invalid="ignore"):
            sums, gram, gram_sq, crosses = _gram_products(values, r, q, plans)
        stats = [_gram_plan_rows(plan, r, sums, gram, gram_sq, cross, rows)
                 for plan, cross in zip(plans, crosses)]
    else:
        z = rows()
        stats = [part for _, a, c, i, j in plans
                 for part in (_row_stats(z, a, c), _row_stats(z, a[i], c[i], a[j], c[j]))]
    mean, se = np.concatenate([np.empty((2, 0)), *stats], axis=1)
    return [label for labels, *_ in plans for label in labels], mean, se


def _finish(check: str, compared, z_max: float, reference=None) -> EnsembleReport:
    """The report of ``compared``, ``(labels, estimate, se)``, against
    ``reference`` (default 0): z = (estimate - reference) / se, or, where
    se == 0, 0 when estimate == reference and inf otherwise.  The threshold
    is Bonferroni-corrected over the rows."""
    labels, estimate, se = compared
    reference = np.zeros(len(labels)) if reference is None else np.array(reference, float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = np.where(se == 0.0, np.where(estimate == reference, 0.0, np.inf),
                     (estimate - reference) / se)
    for column in (estimate, reference, se, z):
        column.setflags(write=False)
    return EnsembleReport(check, float(z_max), bonferroni_threshold(z_max, len(labels)),
                          tuple(labels), estimate, reference, se, z)


def stationarity_check(fields, shifts, z_max: float = 3.0, max_pairs: int = 60) -> EnsembleReport:
    """Are first and second moments shift-invariant across the window?

    Compares moments of {X_t} against {X_{t+s}} for each shift; a
    stationary batch passes, a sheet with growing variance fails.
    """
    z_max = check_threshold(z_max, "z_max")
    data, window, _ = _stack(fields)
    n = data.shape[-1]
    plans = [_shift_plan(window, n, s, "stat", max_pairs) for s in shifts]
    flat = data.reshape(len(data), -1)
    return _finish("stationarity", _compare(lambda sl: flat[sl], len(flat), plans), z_max)


def increment_stationarity_check(fields, shifts, z_max: float = 3.0, max_pairs: int = 60) -> EnsembleReport:
    """Stationarity of the unit-cube increment field."""
    z_max = check_threshold(z_max, "z_max")
    data, window, _ = _stack(fields)
    if any(s < 2 for s in window.shape):
        raise WindowError(f"window {window} too small for increments")
    r, n = data.shape[0], data.shape[-1]
    inc_window = Window(tuple(l + 1 for l in window.lo), window.hi)

    def values(sl):
        x = data[sl]
        for axis in range(window.N):
            x = np.diff(x, axis=axis + 1)
        return x.reshape(len(x), -1)

    plans = [_shift_plan(inc_window, n, s, "incr", max_pairs) for s in shifts]
    return _finish("increment-stationarity", _compare(values, r, plans), z_max)


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

    def slab(part):
        sl = tuple(slice(a - b, a - b + m) for a, b, m in zip(part.lo, window.lo, part.shape))
        return data[(slice(None),) + sl]

    shifted, based, e = slab(base.shifted(shift)), slab(base), theta.exp(shift).T
    q = base.volume * n

    def values(sl):
        # The shifted sites' values, then the base sites' values of every
        # replication, as one (replications * sites, n) matrix, times
        # e^{s*Theta}^T.
        part = shifted[sl]
        mapped = based[sl].reshape(-1, n) @ e
        return np.concatenate([part.reshape(len(part), q), mapped.reshape(len(part), q)],
                              axis=1)

    plan = _shift_plan(window, n, shift, "selfsim", max_pairs,
                       (np.arange(q), np.arange(q, 2 * q)))
    return _finish("self-similarity", _compare(values, r, [plan]), z_max)


def fidelity_check(fields, hurst: HurstSpec, mixing, n_pairs: int = 10,
                   z_max: float = 3.0) -> EnsembleReport:
    """Empirical second moments against the closed-form sheet covariance.

    Compares the covariances of components k <= l at every site, then at
    ``n_pairs`` site pairs chosen deterministically (even stride through
    the lexicographic pair list), with the threshold Bonferroni-corrected
    over all rows.  A FOU batch (one whose config has a ``kind``) raises
    ConfigError before anything is computed: its law is not the sheet's.
    """
    if isinstance(fields, SampleBatch) and "kind" in fields.config:
        raise ConfigError(f"fidelity knows only the fractional sheet law, and the batch is a "
                          f"{fields.config['kind']}-kind FOU batch; its exact law is not "
                          "implemented yet")
    z_max = check_threshold(z_max, "z_max")
    data, window, clock = _stack(fields)
    r, n = data.shape[0], data.shape[-1]
    if hurst.n != n or hurst.N != window.N:
        raise DimensionMismatchError("Hurst spec does not match the batch geometry")
    a, m, comps = as_mixing(mixing, n), window.volume, _comp_pairs(n)
    pairs = np.array([(i, i) for i in range(m)] + _site_pairs(m, n_pairs))
    # Component c's covariance at a pair is the product over axes of its
    # 1-D Gram entries at the pair's per-axis indices.
    comp_cov = 1.0
    for j, index in enumerate(np.unravel_index(pairs.T, window.shape)):
        pts = sheet_points(Window((window.lo[j],), (window.hi[j],)), clock)
        gram = np.stack([build_cov_matrix(pts, [h]) for h in hurst.H[:, j]], axis=-1)
        comp_cov = comp_cov * gram[tuple(index)]
    refs = np.sum(comp_cov[:, np.newaxis] * [a[k] * a[l] for k, l in comps], axis=-1).ravel()
    labels = [f"fid {f'var t={i}' if p < m else f'cov t={i},{j}'} k={k + 1},l={l + 1}"
              for p, (i, j) in enumerate(pairs) for k, l in comps]
    cols = pairs[:, np.newaxis] * n + comps
    # Only the columns the pairs use are gathered into rows.
    used, pos = np.unique(cols, return_inverse=True)
    x = np.ascontiguousarray(data.reshape(r, -1)[:, used].T)
    left, right = pos.reshape(-1, 2).T

    def products(sl):
        d = x[left[sl]]
        d *= x[right[sl]]
        return d

    mean, se = _mean_se(products, len(labels), r)
    return _finish("fidelity", (labels, mean, se), z_max, refs)


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
    every = list(window.sites())
    sites = every if sites is None else [tuple(int(v) for v in t) for t in sites]
    m = len(sites)
    q = m * n
    if sites == every:
        flat = data.reshape(r, q)
    else:
        idx = [window.index(t) for t in sites]
        flat = np.stack([data[(slice(None),) + i] for i in idx], axis=1).reshape(r, q)
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
