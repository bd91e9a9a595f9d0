"""AR(1) identity tests.

The drift oracle is written with scipy.linalg.expm and explicit corner
loops; the scalar moving-average oracle reconstructs the stationary
solution with plain Python sums.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from fieldcorrespond import (
    Ar1System,
    CommutationError,
    ConfigError,
    DimensionMismatchError,
    FieldWindow,
    ThetaTuple,
    TruncationPolicy,
    Window,
    ar1_drift,
    ar1_residual,
    drift_field,
    edge_decay_norms,
    noise_from_stationary,
    stationary_solution,
    unit_increment,
    verify_ar1,
)

from conftest import random_commuting_theta, random_field


def star(t, theta):
    return sum(tl * m for tl, m in zip(t, theta.mats))


def drift_naive(x, t, theta):
    """sum over corner offsets i != 0 of (-1)^(1 + sum i) e^{-i*Theta} X_{t-i}."""
    acc = np.zeros(x.n)
    for i in itertools.product((0, 1), repeat=x.N):
        if sum(i) == 0:
            continue
        sign = (-1.0) ** (1 + sum(i))
        e = scipy.linalg.expm(-star(i, theta))
        site = tuple(a - b for a, b in zip(t, i))
        acc += sign * (e @ x.at(site))
    return acc


def test_drift_n1_is_scaled_previous():
    theta = ThetaTuple([np.array([[math.log(2.0)]])])
    x = FieldWindow(Window((0,), (3,)), np.array([4.0, 8.0, -2.0, 6.0]))
    for t in range(1, 4):
        assert ar1_drift(x, (t,), theta)[0] == pytest.approx(
            0.5 * x.at((t - 1,))[0], rel=1e-14
        )


def test_drift_n2_signs():
    # Two axes: the diagonal corner enters with a minus sign.
    theta = ThetaTuple([np.diag([0.5]), np.diag([0.25])])
    w = Window((0, 0), (1, 1))
    x = FieldWindow(w, np.arange(4.0).reshape(2, 2))
    t = (1, 1)
    e1 = math.exp(-0.5)
    e2 = math.exp(-0.25)
    ref = e2 * x.at((1, 0))[0] + e1 * x.at((0, 1))[0] - e1 * e2 * x.at((0, 0))[0]
    assert ar1_drift(x, t, theta)[0] == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("N,n", [(1, 2), (2, 2), (3, 1)])
def test_drift_matches_naive(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    w = Window((-1,) * N, (2,) * N)
    x = random_field(rng, w, n)
    for t in Window((0,) * N, (2,) * N).sites():
        np.testing.assert_allclose(
            ar1_drift(x, t, theta), drift_naive(x, t, theta), atol=1e-12
        )


def test_drift_field_matches_sitewise(rng):
    theta = random_commuting_theta(rng, 2, 2)
    x = random_field(rng, Window((-2, -1), (2, 3)), 2)
    d = drift_field(x, theta)
    assert d.window == Window((-1, 0), (2, 3))
    for t in d.window.sites():
        np.testing.assert_allclose(d.at(t), ar1_drift(x, t, theta), atol=1e-13)


def test_residual_of_constructed_solution(rng):
    for N, n in ((1, 1), (2, 2)):
        theta = random_commuting_theta(rng, N, n, lo=0.6, hi=1.2)
        g = random_field(rng, Window((-9,) * N, (3,) * N), n)
        system = Ar1System(theta, g, TruncationPolicy(depth=4))
        x = stationary_solution(system, out_window=Window((-2,) * N, (3,) * N))
        res = ar1_residual(x, g, theta)
        assert np.max(np.abs(res.values)) <= 1e-12


def test_residual_of_extracted_noise(rng):
    for N, n in ((1, 2), (2, 1), (3, 1)):
        theta = random_commuting_theta(rng, N, n)
        x = random_field(rng, Window((-2,) * N, (2,) * N), n)
        g = noise_from_stationary(x, theta)
        res = ar1_residual(x, g, theta)
        assert np.max(np.abs(res.values)) <= 1e-12
        assert res.window == Window((-1,) * N, (2,) * N)


def test_scalar_moving_average_oracle(rng):
    # n = N = 1: X_t = sum_{j=L}^{t} e^{(j-t) th} (G_j - G_{j-1}).
    th = 0.9
    theta = ThetaTuple([np.array([[th]])])
    g = random_field(rng, Window((-12,), (3,)), 1)
    system = Ar1System(theta, g, TruncationPolicy(depth=6))
    out = Window((-4,), (3,))
    x = stationary_solution(system, out_window=out)
    for t in range(-4, 4):
        ref = sum(
            math.exp(th * (j - t)) * (g.at((j,))[0] - g.at((j - 1,))[0])
            for j in range(-10, t + 1)
        )
        assert x.at((t,))[0] == pytest.approx(ref, abs=1e-12)


def test_stationary_solution_wide_spectrum(rng):
    # Eigenvalues {0.05, 2.0} at the default eps give depth 383: the far
    # weights e^{-383 * 2.0} underflow to 0, which is harmless because those
    # terms lie below the tail bound anyway.
    c, s = math.cos(0.6), math.sin(0.6)
    r = np.array([[c, -s], [s, c]])
    m = (r * [0.05, 2.0]) @ r.T
    theta = ThetaTuple([(m + m.T) / 2.0])
    (depth,) = TruncationPolicy().resolve(theta)
    assert depth * 2.0 > math.log(np.finfo(float).max)
    out = Window((0,), (4,))
    g = random_field(rng, Window((-depth - 1,), (4,)), 2)
    x = stationary_solution(Ar1System(theta, g, TruncationPolicy()), out)
    assert np.all(np.isfinite(x.values))
    for t in range(5):
        ref = sum(
            scipy.linalg.expm((j - t) * theta.mats[0]) @ (g.at((j,)) - g.at((j - 1,)))
            for j in range(-depth, t + 1)
        )
        np.testing.assert_allclose(x.at((t,)), ref, rtol=1e-12, atol=1e-12)
    assert verify_ar1(x, g, theta)["pass"]


def test_ar1_identity_formula(rng):
    # X_t = drift + unit increment of G, directly from the definitions.
    theta = random_commuting_theta(rng, 2, 2, lo=0.7, hi=1.2)
    g = random_field(rng, Window((-10, -10), (2, 2)), 2)
    system = Ar1System(theta, g, TruncationPolicy(depth=5))
    x = stationary_solution(system, out_window=Window((-2, -2), (2, 2)))
    for t in Window((-1, -1), (2, 2)).sites():
        lhs = x.at(t)
        rhs = drift_naive(x, t, theta) + unit_increment(g, t)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_verify_ar1_pass_report(rng):
    theta = random_commuting_theta(rng, 1, 1)
    x = random_field(rng, Window((-3,), (3,)), 1)
    g = noise_from_stationary(x, theta)
    report = verify_ar1(x, g, theta, tolerance=1e-10)
    assert report["pass"] is True
    assert report["sites"] == 6
    assert report["tolerance"] == 1e-10
    assert "offending_sites" not in report


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, True, "1e-10"])
def test_verify_ar1_rejects_bad_tolerance(rng, tolerance):
    theta = random_commuting_theta(rng, 1, 1)
    x = random_field(rng, Window((-3,), (3,)), 1)
    g = noise_from_stationary(x, theta)
    with pytest.raises(ConfigError, match="tolerance must be a non-negative finite"):
        verify_ar1(x, g, theta, tolerance=tolerance)
    assert verify_ar1(x, g, theta, tolerance=0)["tolerance"] == 0.0


def test_verify_ar1_flags_corrupted_site(rng):
    theta = random_commuting_theta(rng, 2, 1)
    x = random_field(rng, Window((-2, -2), (2, 2)), 1)
    g = noise_from_stationary(x, theta)
    vals = np.array(x.values)
    bad = x.window.index((0, 0))
    vals[bad] += 0.5
    x_bad = FieldWindow(x.window, vals)
    report = verify_ar1(x_bad, g, theta, tolerance=1e-10)
    assert report["pass"] is False
    assert report["max_residual"] > 1e-3
    assert [0, 0] in report["offending_sites"]
    # the corruption also pollutes the drift of neighbouring sites
    assert len(report["offending_sites"]) >= 2


def test_system_rejects_noncommuting(rng):
    theta = ThetaTuple([np.diag([1.0, 2.0]), np.array([[1.5, 0.5], [0.5, 1.5]])])
    g = random_field(rng, Window((-2, -2), (2, 2)), 2)
    with pytest.raises(CommutationError):
        Ar1System(theta, g)


def test_system_rejects_exponential_clock(rng):
    theta = random_commuting_theta(rng, 1, 1)
    g = random_field(rng, Window((-2,), (2,)), 1, clock="exponential")
    with pytest.raises(DimensionMismatchError, match="integer-clock|integer"):
        Ar1System(theta, g)


def test_system_rejects_dimension_mismatch(rng):
    theta = random_commuting_theta(rng, 1, 2)
    g = random_field(rng, Window((-2,), (2,)), 1)
    with pytest.raises(DimensionMismatchError):
        Ar1System(theta, g)


def test_edge_decay_norms_decay(rng):
    # Norms shrink walking toward the truncation edge of a constructed
    # solution, at the rate set by the smallest eigenvalue.
    theta = random_commuting_theta(rng, 1, 1, lo=0.9, hi=1.1)
    g = random_field(rng, Window((-20,), (3,)), 1)
    system = Ar1System(theta, g, TruncationPolicy(depth=10))
    x = stationary_solution(system, out_window=Window((-8,), (3,)))
    norms = edge_decay_norms(x, theta, axis=0, count=5)
    assert norms.shape == (5,)
    assert np.all(norms > 0.0)


def test_edge_decay_norms_window_guard(rng):
    theta = random_commuting_theta(rng, 1, 1)
    x = random_field(rng, Window((0,), (2,)), 1)
    with pytest.raises(Exception, match="slices"):
        edge_decay_norms(x, theta, count=5)
