"""AR(1) characterization of stationary fields.

A stationary field X with commuting tuple Theta satisfies, per path,

    X_t = drift(X, t) + unit_increment(G, t)

where the drift is the alternating corner sum
``sum_{i in {0,1}^N, i != 0} (-1)^(1 + sum i) e^{-i*Theta} X_{t-i}`` and G
is the integer-clock noise extracted by ``m_forward(lamperti(X))``.  The
converse direction builds X from noise G by the truncated inverse
accumulation followed by the inverse Lamperti map; it is never iterated
site by site.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import ThetaTuple
from .errors import DimensionMismatchError, WindowError, check_threshold
from .fields import FieldWindow, Window, unit_increment_field
from .transforms import (
    TruncationPolicy,
    lamperti,
    lamperti_inv,
    m_forward,
    m_inverse_truncated,
)


@dataclass(frozen=True)
class Ar1System:
    """A commuting tuple, its driving noise window, and a truncation policy."""

    theta: ThetaTuple
    noise: FieldWindow
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if self.noise.n != self.theta.n or self.noise.N != self.theta.N:
            raise DimensionMismatchError(
                f"noise field (n={self.noise.n}, N={self.noise.N}) does not match "
                f"tuple (n={self.theta.n}, N={self.theta.N})"
            )
        if self.noise.clock != "integer":
            raise DimensionMismatchError("AR(1) noise must be an integer-clock field")
        self.theta.require_commuting("Ar1System")


def ar1_drift(x: FieldWindow, t, theta: ThetaTuple) -> np.ndarray:
    """Drift term at site t: alternating e^{-i*Theta}-weighted corner sum."""
    _check(x, theta)
    t = tuple(int(v) for v in t)
    acc = np.zeros(x.n)
    for i in itertools.product((0, 1), repeat=x.N):
        if sum(i) == 0:
            continue
        sign = -1.0 if (1 + sum(i)) % 2 else 1.0
        e = theta.exp(tuple(-v for v in i))
        site = tuple(a - b for a, b in zip(t, i))
        acc += sign * (e @ x.at(site))
    return acc


def drift_field(x: FieldWindow, theta: ThetaTuple) -> FieldWindow:
    """Drift at every interior site [lo+1, hi], vectorized over the window."""
    _check(x, theta)
    if any(s < 2 for s in x.window.shape):
        raise WindowError(f"window {x.window} too small for the AR(1) drift")
    out_shape = tuple(s - 1 for s in x.window.shape)
    acc = np.zeros(out_shape + (x.n,))
    for i in itertools.product((0, 1), repeat=x.N):
        if sum(i) == 0:
            continue
        sign = -1.0 if (1 + sum(i)) % 2 else 1.0
        e = theta.exp(tuple(-v for v in i))
        sl = tuple(
            slice(1 - ii, s - ii) for ii, s in zip(i, x.window.shape)
        )
        acc += sign * (x.values[sl] @ e.T)
    w = Window(tuple(l + 1 for l in x.window.lo), x.window.hi)
    return FieldWindow(w, acc, "integer")


def ar1_residual(x: FieldWindow, g: FieldWindow, theta: ThetaTuple) -> FieldWindow:
    """Residual X_t - drift - unit_increment(G, t) on the common interior.

    The common interior is [max(lo_X, lo_G) + 1, min(hi_X, hi_G)]; both
    windows must overlap with at least one unit cube of margin.
    """
    _check(x, theta)
    _check(g, theta)
    if g.clock != "integer":
        raise DimensionMismatchError("ar1_residual expects integer-clock noise")
    common = x.window.intersection(g.window)
    lo = tuple(l + 1 for l in common.lo)
    hi = common.hi
    if any(a > b for a, b in zip(lo, hi)):
        raise WindowError(
            f"windows {x.window} and {g.window} leave no interior sites "
            f"for the AR(1) residual"
        )
    res_w = Window(lo, hi)
    drift = drift_field(x, theta)
    dg = unit_increment_field(g)

    def cut(f: FieldWindow) -> np.ndarray:
        sl = tuple(
            slice(a - b, a - b + s)
            for a, b, s in zip(res_w.lo, f.window.lo, res_w.shape)
        )
        return f.values[sl]

    vals = cut(x) - cut(drift) - cut(dg)
    return FieldWindow(res_w, vals, "integer")


def stationary_solution(system: Ar1System, out_window: Window = None) -> FieldWindow:
    """Stationary field driven by the system's noise.

    Composition of the truncated inverse accumulation and the inverse
    Lamperti map; the transform metadata on the result records the
    truncation depth and tail bound.
    """
    y = m_inverse_truncated(system.noise, system.theta, system.policy, out_window)
    return lamperti_inv(y, system.theta)


def noise_from_stationary(x: FieldWindow, theta: ThetaTuple) -> FieldWindow:
    """Integer-clock noise G with X_t = drift + unit_increment(G, t) per path."""
    return m_forward(lamperti(x, theta), theta)


def verify_ar1(
    x: FieldWindow, g: FieldWindow, theta: ThetaTuple, tolerance: float = 1e-10
) -> dict:
    """Residual report over the common interior window.

    ``max_residual`` is the largest absolute residual component; sites
    exceeding the tolerance are listed (capped at 20) when the check fails.
    A tolerance that is not a finite number >= 0 raises ConfigError.
    """
    tolerance = check_threshold(tolerance, "tolerance", zero_ok=True)
    res = ar1_residual(x, g, theta)
    mags = np.max(np.abs(res.values), axis=-1)
    max_residual = float(mags.max())
    ok = bool(max_residual <= tolerance)
    report = {
        "max_residual": max_residual,
        "sites": res.window.volume,
        "tolerance": float(tolerance),
        "pass": ok,
    }
    if not ok:
        bad = np.argwhere(mags > tolerance)
        offs = [
            [int(v + l) for v, l in zip(idx, res.window.lo)] for idx in bad[:20]
        ]
        report["offending_sites"] = offs
    return report


def edge_decay_norms(
    x: FieldWindow, theta: ThetaTuple, axis: int = 0, count: int = 5
) -> np.ndarray:
    """Mean norm of e^{m Theta_axis} X over hyperplane slices at the low edge.

    Returns ``count`` means for m = lo_axis, lo_axis + 1, ...; for a field
    built by ``stationary_solution`` these decrease monotonically as m
    walks down toward the truncation edge.
    """
    _check(x, theta)
    if not 0 <= axis < x.N:
        raise DimensionMismatchError(f"axis {axis} out of range for N={x.N}")
    if x.window.shape[axis] < count:
        raise WindowError(
            f"window {x.window} has fewer than {count} slices along axis {axis}"
        )
    out = np.zeros(count)
    unit = tuple(1 if j == axis else 0 for j in range(x.N))
    for k in range(count):
        m = x.window.lo[axis] + k
        e = theta.exp(tuple(m * u for u in unit))
        sl = [slice(None)] * x.N
        sl[axis] = k
        slab = x.values[tuple(sl)].reshape(-1, x.n)
        out[k] = float(np.linalg.norm(slab @ e.T, axis=1).mean())
    return out


def _check(x: FieldWindow, theta: ThetaTuple) -> None:
    if x.n != theta.n or x.N != theta.N:
        raise DimensionMismatchError(
            f"field (n={x.n}, N={x.N}) does not match tuple "
            f"(n={theta.n}, N={theta.N})"
        )
