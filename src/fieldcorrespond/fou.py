"""Fractional Ornstein-Uhlenbeck sheets of the first and second kind.

First kind: drive the AR(1) construction with a mixed fractional sheet on
the integer clock; X = lamperti_inv(m_inverse_truncated(G)) for G = A B.

Second kind: evaluate the mixed sheet on the exponential clock and pull
it back through the inverse Lamperti map with the tuple derived from the
Hurst spec, Theta_j = diag(H_j^(1), ..., H_j^(n)).  The derived tuple is
never user-supplied: for the second kind the scaling exponents ARE the
Hurst indices, and the mixing matrix must commute with the clock
exponentials for the pullback to stay Gaussian-consistent (checked at the
axis unit vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ThetaTuple, spectral_norm
from .ar1 import Ar1System, stationary_solution
from .errors import CommutationError, ConfigError
from .fields import FieldWindow, Window
from .gaussian import (
    SAMPLER_VERSION,
    HurstSpec,
    SampleBatch,
    SheetSampler,
    as_mixing,
    check_int,
)
from .transforms import (
    TRANSFORMS_VERSION,
    TruncationPolicy,
    lamperti_inv,
    lamperti_inv_batch,
    transform_record,
)

MIXING_COMMUTE_RTOL = 1e-10


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


def _first_kind_sampler(cfg: FouConfig) -> SheetSampler:
    depth = cfg.policy.resolve(cfg.theta)
    ext = Window(
        tuple(l - d - 1 for l, d in zip(cfg.window.lo, depth)),
        cfg.window.hi,
    )
    return SheetSampler(cfg.mixing, cfg.hurst, ext, "integer")


def fou_noise(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """The integer-clock driving noise G = A B used by the first kind.

    Covers the extended window [lo - depth - 1, hi] that the truncated
    inverse accumulation needs for the configured output window.
    """
    if cfg.kind != "first":
        raise ConfigError("fou_noise is defined for first-kind configurations")
    return _first_kind_sampler(cfg).sample(cfg.seed, replication)


def fou_first_kind(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """One first-kind replication on cfg.window (integer clock)."""
    if cfg.kind != "first":
        raise ConfigError(f"configuration has kind={cfg.kind!r}, expected 'first'")
    g = _first_kind_sampler(cfg).sample(cfg.seed, replication)
    system = Ar1System(cfg.theta, g, cfg.policy)
    return stationary_solution(system, cfg.window)


def fou_second_kind(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    """One second-kind replication on cfg.window (integer clock)."""
    if cfg.kind != "second":
        raise ConfigError(f"configuration has kind={cfg.kind!r}, expected 'second'")
    sampler = SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "exponential")
    y = sampler.sample(cfg.seed, replication)
    return lamperti_inv(y, cfg.theta)


def fou_field(cfg: FouConfig, replication: int = 0) -> FieldWindow:
    if cfg.kind == "first":
        return fou_first_kind(cfg, replication)
    return fou_second_kind(cfg, replication)


def fou_batch(cfg: FouConfig) -> SampleBatch:
    """R replications of the configured construction.

    The per-axis Gram factors are computed once and shared across
    replications; each replication keeps its own (seed, replication,
    component) streams.  Replications are drawn in the sampler's blocks
    (``SheetSampler.blocks``) into one preallocated array: the first kind
    solves each drawn noise as its block arrives, the second kind pulls a
    whole block back at once.  Replication r equals ``fou_field(cfg, r)``
    byte for byte, metadata included.
    """
    values = np.empty((cfg.replications,) + cfg.window.shape + (cfg.hurst.n,))
    if cfg.kind == "first":
        sampler = _first_kind_sampler(cfg)
        for start, block in sampler.blocks(cfg.seed, cfg.replications):
            for i, g in enumerate(block):
                noise = FieldWindow(sampler.window, g)
                x = stationary_solution(Ar1System(cfg.theta, noise, cfg.policy), cfg.window)
                values[start + i] = x.values
        field_meta = x.meta
    else:
        sampler = SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "exponential")
        for start, block in sampler.blocks(cfg.seed, cfg.replications):
            values[start:start + len(block)] = lamperti_inv_batch(block, cfg.window,
                                                                  cfg.theta)
        field_meta = {"transforms": [transform_record("Linv")]}
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
    return SampleBatch(cfg.seed, values, cfg.window, "integer", config, field_meta)
