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

Both accumulation maps require a commuting tuple.  Each transform returns
the largest output window computable from the input data; nothing is ever
zero-extended implicitly.
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
)
from .fields import FieldWindow, Window, unit_increment_field

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
        _check_eps(self.eps)
        d = self.depth
        entries = d if isinstance(d, (tuple, list)) else (d,)
        if d is not None and not all(_is_int(v) for v in entries):
            raise ConfigError(
                f"truncation depth must be an int or a list of ints, got {d!r}"
            )

    def resolve(self, theta: ThetaTuple) -> tuple:
        if self.depth is None:
            return truncation_depth(theta, self.eps)
        d = self.depth
        if isinstance(d, (int, np.integer)):
            d = (int(d),) * theta.N
        d = tuple(int(v) for v in d)
        if len(d) != theta.N:
            raise ConfigError(
                f"truncation depth {d} has wrong length for N={theta.N}"
            )
        if any(v < 0 for v in d):
            raise ConfigError(f"truncation depth must be non-negative, got {d}")
        return d


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_eps(eps) -> None:
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be a positive finite number, got {eps!r}")


def truncation_depth(theta: ThetaTuple, eps: float, window: Window = None) -> tuple:
    """Smallest per-axis depth M with ``2^N * exp(-lambda_min * M) <= eps``.

    ``lambda_min`` is the smallest eigenvalue over the tuple.  The bound
    counts the 2^N - 1 discarded boundary corner terms, each carrying an
    operator-norm factor at most ``exp(-lambda_min * M)`` relative to the
    retained scale.  ``window`` is accepted for signature symmetry with the
    other transform helpers; the bound does not depend on it.
    """
    _check_eps(eps)
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


def _exp_stack(theta: ThetaTuple, window: Window, sign: int) -> np.ndarray:
    """Stacked exponentials e^{sign * t * Theta} for all window sites."""
    key = (window.lo, window.hi, sign)
    cached = theta._stack_cache.get(key)
    if cached is None:
        with np.errstate(over="ignore"):
            mats = [theta.exp(tuple(sign * v for v in t)) for t in window.sites()]
        cached = np.stack(mats)
        if not np.all(np.isfinite(cached)):
            raise NumericRangeError(
                f"matrix exponentials overflow on window {window}; "
                f"shrink the window or the tuple's eigenvalues"
            )
        cached.setflags(write=False)
        theta._stack_cache[key] = cached
    return cached


def _check_pair(x: FieldWindow, theta: ThetaTuple, clock: str, what: str) -> None:
    if x.n != theta.n:
        raise DimensionMismatchError(
            f"{what}: field has n={x.n}, tuple has n={theta.n}"
        )
    if x.N != theta.N:
        raise DimensionMismatchError(
            f"{what}: field has N={x.N}, tuple has N={theta.N}"
        )
    if x.clock != clock:
        raise DimensionMismatchError(
            f"{what} expects a {clock}-clock field, got {x.clock!r}"
        )


def _append_transform(x: FieldWindow, record: dict) -> dict:
    meta = dict(x.meta) if x.meta else {}
    chain = list(meta.get("transforms", []))
    chain.append(record)
    meta["transforms"] = chain
    return meta


def _apply_sitewise(x: FieldWindow, theta: ThetaTuple, sign: int) -> np.ndarray:
    e = _exp_stack(theta, x.window, sign)
    flat = x.values.reshape(-1, x.n)
    out = np.einsum("sab,sb->sa", e, flat)
    return out.reshape(x.values.shape)


def lamperti(x: FieldWindow, theta: ThetaTuple, theta_ref: str = None) -> FieldWindow:
    """Exponential-clock image Y_{e^t} = e^{t*Theta} X_t, same window."""
    _check_pair(x, theta, "integer", "lamperti")
    theta.require_commuting("lamperti")
    vals = _apply_sitewise(x, theta, +1)
    meta = _append_transform(
        x,
        {"transform": "L", "theta_ref": theta_ref or "inline",
         "depth": None, "tail_bound": None},
    )
    return FieldWindow(x.window, vals, "exponential", meta)


def lamperti_inv(y: FieldWindow, theta: ThetaTuple, theta_ref: str = None) -> FieldWindow:
    """Integer-clock image X_t = e^{-t*Theta} Y_{e^t}, same window."""
    _check_pair(y, theta, "exponential", "lamperti_inv")
    theta.require_commuting("lamperti_inv")
    vals = _apply_sitewise(y, theta, -1)
    meta = _append_transform(
        y,
        {"transform": "Linv", "theta_ref": theta_ref or "inline",
         "depth": None, "tail_bound": None},
    )
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
    theta.require_commuting("m_forward")
    if any(l > 0 or h < 0 for l, h in zip(y.window.lo, y.window.hi)):
        raise WindowError(
            f"m_forward needs lo <= 0 <= hi on every axis, got window {y.window}"
        )
    dy = unit_increment_field(y)
    e = _exp_stack(theta, dy.window, -1)
    w = np.einsum("sab,sb->sa", e, dy.values.reshape(-1, y.n))
    w = w.reshape(dy.values.shape)
    for axis in range(y.N):
        w = _signed_accumulate(w, axis, dy.window.lo[axis])
    meta = _append_transform(
        y,
        {"transform": "M", "theta_ref": theta_ref or "inline",
         "depth": None, "tail_bound": None},
    )
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
    theta.require_commuting("m_inverse_truncated")
    policy = policy or TruncationPolicy()
    depth = policy.resolve(theta)
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
    dg = unit_increment_field(g)
    sub = Window(low, out_window.hi)
    # Slice the increment field down to the summation box [low, out.hi].
    slices = tuple(
        slice(a - b, a - b + s)
        for a, b, s in zip(sub.lo, dg.window.lo, sub.shape)
    )
    dvals = dg.values[slices]
    e = _exp_stack(theta, sub, +1)
    w = np.einsum("sab,sb->sa", e, dvals.reshape(-1, g.n))
    w = w.reshape(sub.shape + (g.n,))
    for axis in range(g.N):
        w = np.cumsum(w, axis=axis)
    drop = tuple(slice(d, None) for d in depth)
    vals = w[drop]
    meta = _append_transform(
        g,
        {
            "transform": "Minv",
            "theta_ref": theta_ref or "inline",
            "depth": list(depth),
            "tail_bound": tail_bound_value(theta, depth),
        },
    )
    return FieldWindow(out_window, vals, "exponential", meta)
