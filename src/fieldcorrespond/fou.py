"""Fractional Ornstein-Uhlenbeck sheets of the first and second kind.

Both kinds are drawn by a ``SheetSampler`` whose per-axis factors carry
the whole construction, so no transform pass runs.

First kind: the stationary AR(1) solution driven by a mixed fractional
sheet on the integer clock, X = lamperti_inv(m_inverse_truncated(G)) for
G = A B.  In the tuple's eigenbasis Theta_j = Q diag(W_j) Q^T that map
separates by axis into one lower-triangular map T_a per eigen-coordinate,
so the sampler applies T_a times the sheet's factor on the padded axis
[lo - depth - 1, hi]: it draws the padded sheet's normals and never forms
the sheet or runs a transform.  Batches of the first kind carry
``"solver": KERNEL_SOLVER`` in their manifest.

Second kind: evaluate the mixed sheet on the exponential clock and pull
it back through the inverse Lamperti map with the tuple derived from the
Hurst spec, Theta_j = diag(H_j^(1), ..., H_j^(n)).  The derived tuple is
never user-supplied: for the second kind the scaling exponents ARE the
Hurst indices, and the mixing matrix must commute with the clock
exponentials for the pullback to stay Gaussian-consistent (checked at the
axis unit vectors).  Because it commutes, the pullback is folded into the
sampler: e^{-t*Theta} = prod_j diag_k(e^{-t_j H_j^(k)}) scales row t_j of
component k's axis-j Gram factor, and no Lamperti pass runs.  Batches of
the second kind carry ``"solver": FOLDED_SOLVER`` in their manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .algebra import ThetaTuple, spectral_norm
from .errors import CommutationError, ConfigError, NumericRangeError, check_int
from .fields import FieldWindow, Window
from .gaussian import (
    SAMPLER_VERSION,
    HurstSpec,
    SampleBatch,
    SheetSampler,
    as_mixing,
    empty_values,
)
from .transforms import (
    TRANSFORMS_VERSION,
    TruncationPolicy,
    tail_bound_value,
    transform_record,
)

MIXING_COMMUTE_RTOL = 1e-10
# Tags of the solvers, recorded in batch manifests.  The first kind is drawn
# from per-axis factors of its own law; the second kind folds the inverse
# Lamperti map into the sheet's per-axis factors.
KERNEL_SOLVER = "kernel-v1"
FOLDED_SOLVER = "folded-v1"


def derive_theta(hurst: HurstSpec) -> ThetaTuple:
    """Diagonal tuple Theta_j = diag over components of H_j."""
    return ThetaTuple([np.diag(hurst.H[:, j]) for j in range(hurst.N)])


def mixing_commutes(mixing, theta: ThetaTuple) -> tuple:
    """Check A e^{s*Theta} = e^{s*Theta} A at the axis unit vectors.

    Returns (ok, max relative defect); the defect is scaled by
    ||A|| * ||e^{s*Theta}||.
    """
    a = as_mixing(mixing, theta.n)
    na = spectral_norm(a)
    worst = 0.0
    for j in range(theta.N):
        unit = tuple(1 if l == j else 0 for l in range(theta.N))
        e = theta.exp(unit)
        denom = na * spectral_norm(e)
        if denom > 0.0:
            worst = max(worst, spectral_norm(a @ e - e @ a) / denom)
    return worst <= MIXING_COMMUTE_RTOL, worst


@dataclass(frozen=True)
class FouConfig:
    """Everything needed to draw one FOU batch deterministically."""

    kind: str
    hurst: HurstSpec
    mixing: np.ndarray
    window: Window
    theta: ThetaTuple = None
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    seed: int = 0
    replications: int = 1

    def __post_init__(self):
        if self.kind not in ("first", "second"):
            raise ConfigError(f"kind must be 'first' or 'second', got {self.kind!r}")
        object.__setattr__(self, "mixing", as_mixing(self.mixing, self.hurst.n))
        if self.window.N != self.hurst.N:
            raise ConfigError(
                f"window has N={self.window.N}, Hurst spec has N={self.hurst.N}"
            )
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        object.__setattr__(self, "replications",
                           check_int(self.replications, "replications", 1))
        if self.kind == "first":
            if self.theta is None:
                raise ConfigError("first-kind FOU needs an explicit tuple")
            if self.theta.n != self.hurst.n or self.theta.N != self.hurst.N:
                raise ConfigError(
                    f"tuple (n={self.theta.n}, N={self.theta.N}) does not match "
                    f"Hurst spec (n={self.hurst.n}, N={self.hurst.N})"
                )
            self.theta.require_commuting("first-kind FOU")
        else:
            if self.theta is not None:
                raise ConfigError(
                    "second-kind FOU derives its tuple from the Hurst spec; "
                    "an explicit tuple cannot be honored"
                )
            derived = derive_theta(self.hurst)
            ok, defect = mixing_commutes(self.mixing, derived)
            if not ok:
                raise CommutationError(
                    f"mixing matrix does not commute with the derived clock "
                    f"exponentials (relative defect {defect:.3e}); make A "
                    f"block-diagonal over equal Hurst rows"
                )
            object.__setattr__(self, "theta", derived)


def _first_kind_factors(cfg: FouConfig) -> tuple:
    """(factors, Q) of the first kind, for ``SheetSampler``'s private hook.

    On axis j, lamperti_inv after m_inverse_truncated maps coordinate a of
    Q^T G on the padded axis [lo - d - 1, hi] to coordinate a of Q^T X by
    T_a[t, s] = e^{-(t-s) w_a} [lo - d <= s <= t] - e^{-(t-s-1) w_a} [s < t],
    w = W_j; only non-positive exponents are formed.  Component k's factor
    is T_a F_k for every a, F_k the factor of the sheet's 1-D Gram on the
    padded axis, as (n, L_j, L_j + d + 1): the mode products then draw the
    AR(1) solution of the padded sheet's normals, pathwise.
    """
    q, w = cfg.theta.eigenbasis("first-kind FOU")
    n, factors = cfg.hurst.n, []
    for j, (lo, hi, d) in enumerate(zip(cfg.window.lo, cfg.window.hi,
                                        cfg.policy.resolve(cfg.theta))):
        size = hi - lo + 1
        if max(n * size, size + d + 1) > gaussian.GRID_CAP:
            raise NumericRangeError(
                f"first-kind FOU axis {j} needs factors of {n * size} rows over {size + d + 1} "
                f"padded sites, beyond the factorization cap of {gaussian.GRID_CAP}")
        lag = np.arange(d + 1, d + 1 + size)[:, np.newaxis] - np.arange(size + d + 1)
        now, before = (np.exp(-np.maximum(lag - i, 0) * w[j][:, None, None]) * (lag >= i)
                       for i in (0, 1))
        now[:, :, 0] = 0.0
        t = now - before
        factors.append(np.stack([t @ f for f in gaussian._axis_factors(
            cfg.hurst, j, lo - d - 1, hi, "integer")]))
    return factors, q


def _sampler(cfg: FouConfig) -> SheetSampler:
    """The sampler of cfg's field: the first kind from its per-axis factors,
    the second from the exponential-clock sheet's factors with e^{-t*Theta}
    folded into their rows."""
    if cfg.kind == "first":
        factors, q = _first_kind_factors(cfg)
        return SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "integer",
                            _factors=factors, _rotation=q)
    return SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "integer", _factors=[
        gaussian._axis_factors(cfg.hurst, j, lo, hi, "exponential")
        * np.exp(-np.outer(cfg.hurst.H[:, j], np.arange(lo, hi + 1)))[:, None, :, None]
        for j, (lo, hi) in enumerate(zip(cfg.window.lo, cfg.window.hi))])


def _field_meta(cfg: FouConfig) -> dict:
    """The transform chain every field of cfg records."""
    chain = [transform_record("Linv")]
    if cfg.kind == "first":
        depth = cfg.policy.resolve(cfg.theta)
        chain.insert(0, transform_record("Minv", None, list(depth),
                                         tail_bound_value(cfg.theta, depth)))
    return {"transforms": chain}


def fou_field(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """Replication ``replication`` of ``fou_batch(cfg)``, drawn alone.

    The first kind equals ``stationary_solution`` of an ``Ar1System``
    driven by the mixed integer-clock sheet that
    ``SheetSampler(A, H, padded, "integer")`` draws from the same seed and
    replication on the padded window [lo - depth - 1, hi], to rounding: its
    factors act on that sheet's normals.  The second kind equals ``lamperti_inv`` of the
    exponential-clock sheet to rounding (to the mixing matrix's
    commutation defect, at most MIXING_COMMUTE_RTOL, when A commutes with
    the clock only to that tolerance): it applies e^{-t*Theta} to the
    sheet's per-axis factors, before A mixes.
    """
    y = _sampler(cfg).sample(cfg.seed, replication)
    return FieldWindow(cfg.window, y.values, "integer", dict(y.meta, **_field_meta(cfg)))


def fou_batch(cfg: FouConfig) -> SampleBatch:
    """R replications of the configured construction.

    The per-axis Gram factors are computed once and shared across
    replications; the draws follow the sampler's randomness contract
    (``gaussian`` module docstring).  Replications are drawn in the sampler's
    blocks (``SheetSampler.blocks``) into one preallocated array.
    Replication r equals ``fou_field(cfg, r)`` byte for byte, metadata
    included.
    """
    sampler = _sampler(cfg)
    values = empty_values(cfg.replications, cfg.window, cfg.hurst.n)
    for start, block in sampler.blocks(cfg.seed, cfg.replications):
        values[start:start + len(block)] = block
    config = {
        "H": cfg.hurst.H.tolist(),
        "A": cfg.mixing.tolist(),
        "window": cfg.window.to_dict(),
        "clock": "integer",
        "n": cfg.hurst.n,
        "N": cfg.hurst.N,
        "kind": cfg.kind,
        "theta": cfg.theta.to_dict(),
        "policy": {"eps": cfg.policy.eps,
                   "depth": list(cfg.policy.resolve(cfg.theta))},
        "transforms": TRANSFORMS_VERSION,
        "sampler": SAMPLER_VERSION,
        "solver": KERNEL_SOLVER if cfg.kind == "first" else FOLDED_SOLVER,
    }
    return SampleBatch(cfg.seed, values, cfg.window, "integer", config, _field_meta(cfg))
