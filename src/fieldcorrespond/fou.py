"""Fractional Ornstein-Uhlenbeck sheets of the first and second kind.

First kind: drive the AR(1) construction with a mixed fractional sheet on
the integer clock; X = lamperti_inv(m_inverse_truncated(G)) for G = A B.

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

from .algebra import ThetaTuple, spectral_norm
from .errors import CommutationError, ConfigError, check_int
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
    lamperti_values,
    m_inverse_values,
    tail_bound_value,
    transform_record,
)

MIXING_COMMUTE_RTOL = 1e-10
# Tag of the second kind's solver, recorded in its batch manifests: the
# inverse Lamperti map is folded into the sampler's per-axis factors.
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


def _noise_window(cfg: FouConfig) -> Window:
    """[lo - depth - 1, hi]: the window the truncated inverse accumulation reads."""
    depth = cfg.policy.resolve(cfg.theta)
    return Window(tuple(l - d - 1 for l, d in zip(cfg.window.lo, depth)), cfg.window.hi)


def _sampler(cfg: FouConfig) -> SheetSampler:
    """The first kind's integer-clock noise, or the second kind's field: the
    exponential-clock sheet with e^{-t*Theta} folded into its factors."""
    if cfg.kind == "first":
        return SheetSampler(cfg.mixing, cfg.hurst, _noise_window(cfg), "integer")
    sampler = SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "exponential")
    sampler._scale_rows([np.exp(-np.outer(cfg.hurst.H[:, j], np.arange(lo, hi + 1)))
                         for j, (lo, hi) in enumerate(zip(cfg.window.lo, cfg.window.hi))])
    return sampler


def _solve(cfg: FouConfig, draws: np.ndarray) -> tuple:
    """(values, field metadata) on cfg.window from a (count, *sampler window, n)
    block; a second-kind block is already the field."""
    if cfg.kind == "second":
        return draws, {"transforms": [transform_record("Linv")]}
    depth = cfg.policy.resolve(cfg.theta)
    draws = m_inverse_values(draws, _noise_window(cfg), cfg.theta, depth, cfg.window)
    chain = [transform_record("Minv", None, list(depth), tail_bound_value(cfg.theta, depth)),
             transform_record("Linv")]
    return lamperti_values(draws, cfg.window, cfg.theta, -1), {"transforms": chain}


def fou_noise(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """The integer-clock driving noise G = A B used by the first kind.

    Covers the extended window [lo - depth - 1, hi] that the truncated
    inverse accumulation needs for the configured output window.
    """
    if cfg.kind != "first":
        raise ConfigError("fou_noise is defined for first-kind configurations")
    return _sampler(cfg).sample(cfg.seed, replication)


def fou_field(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """Replication ``replication`` of ``fou_batch(cfg)``, solved as a block of one.

    The first kind equals ``stationary_solution`` of an ``Ar1System`` driven
    by ``fou_noise(cfg, replication)``.  The second kind equals
    ``lamperti_inv`` of the exponential-clock sheet to rounding (to the
    mixing matrix's commutation defect, at most MIXING_COMMUTE_RTOL, when A
    commutes with the clock only to that tolerance): it applies
    e^{-t*Theta} to the sheet's per-axis factors, before A mixes.
    """
    y = _sampler(cfg).sample(cfg.seed, replication)
    values, meta = _solve(cfg, y.values[np.newaxis])
    return FieldWindow(cfg.window, values[0], "integer", dict(y.meta, **meta))


def fou_batch(cfg: FouConfig) -> SampleBatch:
    """R replications of the configured construction.

    The per-axis Gram factors are computed once and shared across
    replications; the draws follow the sampler's randomness contract
    (``gaussian`` module docstring).  Replications are drawn in the sampler's blocks
    (``SheetSampler.blocks``) into one preallocated array, and a first-kind
    block is solved at once.  Replication r equals ``fou_field(cfg, r)`` byte
    for byte, metadata included.
    """
    values = empty_values(cfg.replications, cfg.window, cfg.hurst.n)
    for start, block in _sampler(cfg).blocks(cfg.seed, cfg.replications):
        values[start:start + len(block)], field_meta = _solve(cfg, block)
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
    }
    if cfg.kind == "second":
        config["solver"] = FOLDED_SOLVER
    return SampleBatch(cfg.seed, values, cfg.window, "integer", config, field_meta)
