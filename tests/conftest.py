"""Shared helpers for the test suite.

All randomness is seeded through numpy Generators so every test is
reproducible; there is no reliance on global RNG state.
"""

import itertools

import numpy as np
import pytest

from fieldcorrespond import FieldWindow, ThetaTuple, Window


def random_commuting_theta(rng, N, n, lo=0.4, hi=1.4):
    """Commuting SPD tuple: shared eigenvectors, random positive spectra."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mats = []
    for _ in range(N):
        lam = rng.uniform(lo, hi, size=n)
        m = (q * lam) @ q.T
        mats.append((m + m.T) / 2.0)
    return ThetaTuple(mats)


def random_spd(rng, n, shift=0.5):
    a = rng.normal(size=(n, n))
    m = a @ a.T / n + shift * np.eye(n)
    return (m + m.T) / 2.0


def random_theta(rng, N, n):
    """Independent SPD matrices; generically non-commuting for n >= 2."""
    return ThetaTuple([random_spd(rng, n) for _ in range(N)])


def random_field(rng, window, n, clock="integer"):
    return FieldWindow(window, rng.normal(size=window.shape + (n,)), clock)


def integer_field(rng, window, n, lo=-8, hi=9, clock="integer"):
    """Small-integer values: corner sums on these are exact in floats."""
    vals = rng.integers(lo, hi, size=window.shape + (n,)).astype(float)
    return FieldWindow(window, vals, clock)


def anchored_field(rng, window, n, clock="integer"):
    """Random field forced to zero on every lower-boundary hyperplane."""
    vals = rng.normal(size=window.shape + (n,))
    for axis in range(window.N):
        sl = [slice(None)] * window.N + [slice(None)]
        sl[axis] = 0
        vals[tuple(sl)] = 0.0
    return FieldWindow(window, vals, clock)


def random_window(rng, N, max_side=4, span=6):
    lo = tuple(int(v) for v in rng.integers(-span, 2, size=N))
    hi = tuple(l + int(s) for l, s in zip(lo, rng.integers(1, max_side + 1, size=N)))
    return Window(lo, hi)


def corner_sum_naive(x, t):
    """Reference alternating corner sum, written independently of fields.py."""
    acc = np.zeros(x.n)
    for bits in itertools.product((0, 1), repeat=x.N):
        sign = (-1) ** sum(bits)
        site = tuple(a - b for a, b in zip(t, bits))
        acc = acc + sign * x.at(site)
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
