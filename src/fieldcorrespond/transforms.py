"""Window transforms linking stationary and self-similar fields.

Four maps, all pure functions of (field, theta):

* ``lamperti``      : stationary, integer clock -> exponential clock,
                      Y_{e^t} = e^{t*Theta} X_t.
* ``lamperti_inv``  : the inverse, X_t = e^{-t*Theta} Y_{e^t}.
* ``m_forward``     : exponential clock -> integer clock, the signed
                      accumulation of weighted unit increments
                      G_t = (-1)^{#neg axes} * sum over the box between 0
                      and t of e^{-j*Theta} (unit increment of Y at j).
* ``m_inverse_truncated`` : integer clock -> exponential clock,
                      Y_{e^t} = sum_{j = lo-depth}^{t} e^{j*Theta}
                      (unit increment of G at j), with the lower limit
                      fixed at lo - depth for the requested output window.

All four maps require a commuting tuple and go through its joint
eigenbasis Theta_j = Q diag(W_j) Q^T: the values are rotated once
(v @ Q), multiplied at every site t by the weights
exp(sum_j sign * t_j * W_j), accumulated where the map sums, and rotated
back (@ Q^T).  The exponent field is built by broadcasting the per-axis
spectra and exponentiated once per call; no per-site matrix exponential
is formed.  A window on which some weight overflows is refused with
NumericRangeError before any value is rotated; weights that underflow to
0 are harmless.  A result that leaves the double range (finite values
times finite weights can still overflow) is refused with NumericRangeError
too, never returned as inf or nan; floating-point warnings on the way
there are suppressed.

Each transform returns the largest output window computable from the
input data; nothing is ever zero-extended implicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import ThetaTuple
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NumericRangeError,
    WindowError,
    check_int,
    check_threshold,
)
from .fields import FieldWindow, Window, unit_increment_field

# Version tag of the transform arithmetic, recorded in run outputs: the
# bytes of transformed fields change with it.
TRANSFORMS_VERSION = "eigenbasis-v1"
# Depth above which the derived truncation is almost certainly a sign of a
# near-singular tuple (tiny smallest eigenvalue).
DEPTH_WARN_LIMIT = 10_000


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls the truncated inverse accumulation.

    ``depth`` overrides the derived per-axis depth when given (an int is
    broadcast to all axes); otherwise the depth is derived from ``eps``
    via :func:`truncation_depth`.  Both are checked at construction: a
    non-finite or non-positive ``eps`` and a non-integer (or bool) depth
    raise ConfigError before any work starts.
    """

    eps: float = 1e-8
    depth: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "eps", check_threshold(self.eps, "eps"))
        d = self.depth
        if isinstance(d, (tuple, list)):
            object.__setattr__(
                self, "depth", tuple(check_int(v, "truncation depth") for v in d))
        elif d is not None:
            object.__setattr__(self, "depth", check_int(d, "truncation depth"))

    def resolve(self, theta: ThetaTuple) -> tuple:
        if self.depth is None:
            return truncation_depth(theta, self.eps)
        d = self.depth
        if isinstance(d, int):
            d = (d,) * theta.N
        if len(d) != theta.N:
            raise ConfigError(
                f"truncation depth {d} has wrong length for N={theta.N}"
            )
        if any(v < 0 for v in d):
            raise ConfigError(f"truncation depth must be non-negative, got {d}")
        return d


def truncation_depth(theta: ThetaTuple, eps: float) -> tuple:
    """Smallest per-axis depth M with ``2^N * exp(-lambda_min * M) <= eps``.

    ``lambda_min`` is the smallest eigenvalue over the tuple.  The bound
    counts the 2^N - 1 discarded boundary corner terms, each carrying an
    operator-norm factor at most ``exp(-lambda_min * M)`` relative to the
    retained scale.
    """
    check_threshold(eps, "eps")
    lam = theta.min_eigenvalue
    need = (theta.N * math.log(2.0) - math.log(eps)) / lam
    depth = max(0, math.ceil(need))
    if depth > DEPTH_WARN_LIMIT:
        warnings.warn(
            f"derived truncation depth {depth} exceeds {DEPTH_WARN_LIMIT} steps "
            f"per axis (lambda_min={lam:.3e}); the tuple is nearly singular",
            RuntimeWarning,
            stacklevel=2,
        )
    return (depth,) * theta.N


def tail_bound_value(theta: ThetaTuple, depth) -> float:
    """A-priori relative tail bound ``2^N * exp(-lambda_min * min(depth))``."""
    return float(2.0 ** theta.N * math.exp(-theta.min_eigenvalue * min(depth)))


def _rotate(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``v @ q`` over the last axis as elementwise products and sums, the
    arithmetic whose bytes TRANSFORMS_VERSION names."""
    out = v[..., 0, np.newaxis] * q[0]
    for k in range(1, q.shape[0]):
        out += v[..., k, np.newaxis] * q[k]
    return out


def _weighted(v: np.ndarray, theta: ThetaTuple, window: Window, sign: int,
              what: str) -> tuple:
    """Eigenbasis coordinates ``v @ Q`` times exp(sign * t * W) at every site t.

    ``v`` has shape (*window.shape, n); returns the weighted coordinates
    and Q.  The exponent field sum_j sign * t_j * W_j is built by
    broadcasting and exponentiated once; a weight that overflows raises
    NumericRangeError, one that underflows to 0 is kept.  Callers suppress
    floating-point warnings.
    """
    q, w = theta.eigenbasis(what)
    expo = 0.0
    for j, (l, h) in enumerate(zip(window.lo, window.hi)):
        shape = [1] * window.N + [theta.n]
        shape[j] = h - l + 1
        t = np.arange(l, h + 1, dtype=float)
        expo = expo + (sign * t[:, np.newaxis] * w[j]).reshape(shape)
    weights = np.exp(expo)
    if not np.all(np.isfinite(weights)):
        raise NumericRangeError(
            f"{what}: matrix exponentials overflow on window {window}; "
            f"shrink the window or the tuple's eigenvalues"
        )
    return _rotate(v, q) * weights, q


def _finite(vals: np.ndarray, what: str, window: Window) -> np.ndarray:
    """``vals`` unchanged if every entry is finite, else NumericRangeError."""
    if not np.isfinite(vals).all():
        raise NumericRangeError(
            f"{what}: the result leaves the double range on window {window}"
        )
    return vals


def _check_pair(x: FieldWindow, theta: ThetaTuple, clock: str, what: str) -> None:
    if (x.n, x.N) != (theta.n, theta.N):
        raise DimensionMismatchError(
            f"{what}: field (n={x.n}, N={x.N}) does not match tuple "
            f"(n={theta.n}, N={theta.N})"
        )
    if x.clock != clock:
        raise DimensionMismatchError(
            f"{what} expects a {clock}-clock field, got {x.clock!r}"
        )


def transform_record(transform: str, theta_ref: str = None, depth=None,
                     tail_bound=None) -> dict:
    """The entry a transform appends to the ``transforms`` chain of a field."""
    return {"transform": transform, "theta_ref": theta_ref or "inline",
            "depth": depth, "tail_bound": tail_bound}


def _append_transform(x: FieldWindow, record: dict) -> dict:
    meta = dict(x.meta) if x.meta else {}
    chain = list(meta.get("transforms", []))
    chain.append(record)
    meta["transforms"] = chain
    return meta


def lamperti(x: FieldWindow, theta: ThetaTuple, theta_ref: str = None) -> FieldWindow:
    """Exponential-clock image Y_{e^t} = e^{t*Theta} X_t, same window."""
    _check_pair(x, theta, "integer", "lamperti")
    with np.errstate(over="ignore", invalid="ignore"):
        z, q = _weighted(x.values, theta, x.window, +1, "lamperti")
        vals = _finite(_rotate(z, q.T), "lamperti", x.window)
    meta = _append_transform(x, transform_record("L", theta_ref))
    return FieldWindow(x.window, vals, "exponential", meta)


def lamperti_inv(y: FieldWindow, theta: ThetaTuple, theta_ref: str = None) -> FieldWindow:
    """Integer-clock image X_t = e^{-t*Theta} Y_{e^t}, same window."""
    _check_pair(y, theta, "exponential", "lamperti_inv")
    with np.errstate(over="ignore", invalid="ignore"):
        z, q = _weighted(y.values, theta, y.window, -1, "lamperti_inv")
        vals = _finite(_rotate(z, q.T), "lamperti_inv", y.window)
    meta = _append_transform(y, transform_record("Linv", theta_ref))
    return FieldWindow(y.window, vals, "integer", meta)


def _signed_accumulate(arr: np.ndarray, axis: int, j_lo: int) -> np.ndarray:
    """One axis of the m_forward accumulation.

    ``arr`` indexes j = j_lo .. j_hi along ``axis``; the result indexes
    t = j_lo - 1 .. j_hi with

        t >= 1 : sum_{j=1}^{t} arr_j
        t == 0 : 0 (exact)
        t <= -1: -sum_{j=t+1}^{0} arr_j
    """
    a = np.moveaxis(arr, axis, 0)
    nj = a.shape[0]
    out = np.zeros((nj + 1,) + a.shape[1:])
    i_zero = -j_lo          # array index of j = 0 (may be -1 when j_lo == 1)
    i_one = 1 - j_lo        # array index of j = 1
    if i_zero >= 0:
        neg = np.cumsum(a[i_zero::-1], axis=0)[::-1]
        out[: i_zero + 1] = -neg
    if i_one < nj:
        out[i_one + 1 :] = np.cumsum(a[i_one:], axis=0)
    return np.moveaxis(out, 0, axis)


def m_forward(y: FieldWindow, theta: ThetaTuple, theta_ref: str = None) -> FieldWindow:
    """Signed accumulation of e^{-j*Theta}-weighted unit increments.

    Requires the window to contain 0 on every axis (lo <= 0 <= hi); the
    output lives on the same window, vanishes exactly on the zero
    hyperplanes, and satisfies
    unit_increment(G, t) = e^{-t*Theta} unit_increment(Y, t) for all
    interior t.
    """
    _check_pair(y, theta, "exponential", "m_forward")
    if any(l > 0 or h < 0 for l, h in zip(y.window.lo, y.window.hi)):
        raise WindowError(
            f"m_forward needs lo <= 0 <= hi on every axis, got window {y.window}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        dy = unit_increment_field(y)
        w, q = _weighted(dy.values, theta, dy.window, -1, "m_forward")
        for axis in range(y.N):
            w = _signed_accumulate(w, axis, dy.window.lo[axis])
        w = _finite(_rotate(w, q.T), "m_forward", y.window)
    meta = _append_transform(y, transform_record("M", theta_ref))
    return FieldWindow(y.window, w, "integer", meta)


def m_inverse_truncated(
    g: FieldWindow,
    theta: ThetaTuple,
    policy: TruncationPolicy = None,
    out_window: Window = None,
    theta_ref: str = None,
) -> FieldWindow:
    """Truncated inverse accumulation Y_{e^t} = sum_{j=lo-depth}^{t} e^{j*Theta} dG_j.

    The lower summation corner is fixed at ``out_window.lo - depth``, so
    unit increments of the output satisfy
    unit_increment(Y, t) = e^{t*Theta} unit_increment(G, t) exactly,
    independent of the depth.  The input window must cover
    ``[out_window.lo - depth - 1, out_window.hi]``.  Metadata records the
    depth and the a-priori relative tail bound.
    """
    _check_pair(g, theta, "integer", "m_inverse_truncated")
    depth = (policy or TruncationPolicy()).resolve(theta)
    if out_window is None:
        out_window = Window(
            tuple(l + d + 1 for l, d in zip(g.window.lo, depth)),
            g.window.hi,
        )
    low = tuple(l - d for l, d in zip(out_window.lo, depth))
    need_lo = tuple(l - 1 for l in low)
    if any(a < b for a, b in zip(need_lo, g.window.lo)) or any(
        a > b for a, b in zip(out_window.hi, g.window.hi)
    ):
        raise WindowError(
            f"m_inverse_truncated needs input covering [{need_lo}, {out_window.hi}] "
            f"for output {out_window} at depth {depth}; input window is {g.window}"
        )
    box = tuple(slice(a - b, c - b + 1) for a, b, c in zip(need_lo, g.window.lo, out_window.hi))
    with np.errstate(over="ignore", invalid="ignore"):
        dg = g.values[box]
        for axis in range(g.N):
            dg = np.diff(dg, axis=axis)
        w, q = _weighted(dg, theta, Window(low, out_window.hi), +1, "m_inverse_truncated")
        for axis in range(g.N):
            w = np.cumsum(w, axis=axis)
        drop = tuple(slice(d, None) for d in depth)
        vals = _finite(_rotate(w[drop], q.T), "m_inverse_truncated", out_window)
    meta = _append_transform(g, transform_record(
        "Minv", theta_ref, list(depth), tail_bound_value(theta, depth)))
    return FieldWindow(out_window, vals, "exponential", meta)
