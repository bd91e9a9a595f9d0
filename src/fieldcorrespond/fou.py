"""Fractional Ornstein-Uhlenbeck sheets of the first and second kind.

Both kinds are stationary: along each axis their law is a kernel of the lag
t - s alone.  A ``SheetSampler`` draws them from factors of those Toeplitz
kernels on the window's shape, so no sheet Gram is built, no transform
runs, and moving the window changes neither law nor bytes.  Manifests of
both kinds carry ``"solver": KERNEL_SOLVER``.

First kind: the stationary AR(1) solution driven by a mixed fractional
sheet on the integer clock, X = lamperti_inv(m_inverse_truncated(G)) for
G = A B.  In the tuple's eigenbasis Theta_j = Q diag(W_j) Q^T the map
separates by axis into one causal filter per eigen-coordinate acting on
the sheet's increments, fractional Gaussian noise on the increment axis
[lo - depth, hi].

Second kind: the inverse Lamperti map of the mixed sheet on the
exponential clock, with the tuple derived from the Hurst spec,
Theta_j = diag(H_j^(1), ..., H_j^(n)).  The derived tuple is never
user-supplied: for the second kind the scaling exponents ARE the Hurst
indices, and the mixing matrix must commute with the clock exponentials
for the pullback to stay Gaussian-consistent (checked at the axis unit
vectors).  Because it commutes, component k's per-axis law is the
Lamperti image of fractional Brownian motion, K(t - s) with
h = H_j^(k), drawn before A mixes from the factors of K in ``gaussian``
that the exponential-clock sheet scales by diag(e^{th}): the second kind
is e^{-t*Theta} times that sheet drawn from the same seed, to rounding.
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
# Tag of the solver, recorded in batch manifests: both kinds are drawn from
# factors of their stationary per-axis kernels.
KERNEL_SOLVER = "kernel-v3"


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


def _sampler(cfg: FouConfig) -> SheetSampler:
    """The sampler of cfg's field.  Second kind: component k's factor on
    axis j factors K with h = H_j^(k).  First kind: coordinate a of Q^T X
    along axis j is X_t = sum_{lo-d <= s <= t} e^{-(t-s) w_a} dG_s, w = W_j,
    so component k's factor is that filter E_a times the factor of gamma on
    the increment axis [lo - d, hi], as (n, n, L_j, L_j + d)."""
    if cfg.kind == "second":
        return SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "integer", _factors=[
            gaussian._kernel_factors(gaussian._lamperti_cov, h, lo, hi)
            for h, lo, hi in zip(cfg.hurst.H.T, cfg.window.lo, cfg.window.hi)])
    q, w = cfg.theta.eigenbasis("first-kind FOU")
    n, factors = cfg.hurst.n, []
    for j, (size, d) in enumerate(zip(cfg.window.shape, cfg.policy.resolve(cfg.theta))):
        if max(n * size, size + d) > gaussian.GRID_CAP:
            raise NumericRangeError(
                f"first-kind FOU axis {j} needs factors of {n * size} rows over {size + d} "
                f"increment sites, beyond the factorization cap of {gaussian.GRID_CAP}")
        lag = np.arange(d, d + size)[:, np.newaxis] - np.arange(size + d)
        e = np.exp(-np.maximum(lag, 0) * w[j][:, None, None]) * (lag >= 0)
        factors.append(e @ gaussian._kernel_factors(
            gaussian._fgn_cov, cfg.hurst.H[:, j], cfg.window.lo[j] - d, cfg.window.hi[j]))
    return SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "integer",
                        _factors=factors, _rotation=q)


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

    The first kind equals, to rounding, ``stationary_solution`` of an
    ``Ar1System`` driven by the mixed integer-clock sheet whose increments
    on [lo - depth, hi] are the fractional Gaussian noise its factors draw
    from the same normals.  The second kind equals, to rounding and to the
    mixing matrix's commutation defect (at most MIXING_COMMUTE_RTOL),
    ``lamperti_inv`` of replication ``replication`` of the exponential-clock
    sheet batch drawn from the same seed.
    """
    y = _sampler(cfg).sample(cfg.seed, replication)
    return FieldWindow(cfg.window, y.values, "integer", dict(y.meta, **_field_meta(cfg)))


def fou_batch(cfg: FouConfig) -> SampleBatch:
    """R replications of the configured construction.

    The per-axis kernel factors are computed once; the draws follow the
    sampler's randomness contract (``gaussian`` module docstring), in its
    blocks (``SheetSampler.blocks``), into one preallocated array.
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
        "solver": KERNEL_SOLVER,
    }
    return SampleBatch(cfg.seed, values, cfg.window, "integer", config, _field_meta(cfg))
