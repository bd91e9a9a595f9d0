"""Tests for the Lamperti maps and the increment-summation transforms.

The oracles are written as explicit site loops with scipy.linalg.expm for
the matrix exponentials, so they share no code with the implementations
under test.  Truncation depths are pinned against hand-derived values.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcorrespond import (
    CommutationError,
    ConfigError,
    DimensionMismatchError,
    FieldWindow,
    HurstSpec,
    NumericRangeError,
    ThetaTuple,
    TruncationPolicy,
    Window,
    WindowError,
    derive_theta,
    lamperti,
    lamperti_inv,
    m_forward,
    m_inverse_truncated,
    mat_exp_sym,
    spectral_norm,
    star_index,
    tail_bound_value,
    truncation_depth,
    unit_increment,
    unit_increment_field,
)
from fieldcorrespond.transforms import lamperti_values

from conftest import (
    anchored_field,
    corner_sum_naive,
    random_commuting_theta,
    random_field,
    random_theta,
)


def star(t, theta):
    return sum(tl * m for tl, m in zip(t, theta.mats))


def m_forward_naive(y, theta):
    """Definitional double loop: signed box sums of weighted increments."""
    out = np.zeros(y.window.shape + (y.n,))
    for t in y.window.sites():
        ranges = []
        sign = 1.0
        empty = False
        for tl in t:
            if tl >= 1:
                ranges.append(range(1, tl + 1))
            elif tl == 0:
                empty = True
            else:
                ranges.append(range(tl + 1, 1))
                sign = -sign
        if empty:
            continue
        acc = np.zeros(y.n)
        for j in itertools.product(*ranges):
            e = scipy.linalg.expm(-star(j, theta))
            acc += e @ corner_sum_naive(y, j)
        out[y.window.index(t)] = sign * acc
    return out


def m_inverse_naive(g, theta, depth, out_window):
    out = np.zeros(out_window.shape + (g.n,))
    lo = tuple(l - d for l, d in zip(out_window.lo, depth))
    for t in out_window.sites():
        acc = np.zeros(g.n)
        for j in itertools.product(*(range(a, b + 1) for a, b in zip(lo, t))):
            e = scipy.linalg.expm(star(j, theta))
            acc += e @ corner_sum_naive(g, j)
        out[out_window.index(t)] = acc
    return out


# ---------------------------------------------------------------------------
# Truncation policy and depth


def test_truncation_depth_pinned_at_ten():
    # lambda_min = 1 and eps = 2^N e^{-10} force depth exactly 10.
    for N in (1, 2, 3):
        theta = ThetaTuple([np.eye(2)] * N)
        eps = 2.0 ** N * math.exp(-10.0)
        assert truncation_depth(theta, eps) == (10,) * N


def test_truncation_depth_zero_for_large_eps():
    theta = ThetaTuple([np.array([[1.0]])])
    assert truncation_depth(theta, 2.0) == (0,)
    assert truncation_depth(theta, 5.0) == (0,)


def test_truncation_depth_ceils():
    theta = ThetaTuple([np.array([[1.0]])])
    eps = 2.0 * math.exp(-10.0)
    assert truncation_depth(theta, eps * (1.0 - 1e-9)) == (11,)


def test_truncation_depth_scales_with_lambda():
    theta = ThetaTuple([np.array([[0.5]])])
    assert truncation_depth(theta, 2.0 * math.exp(-10.0)) == (20,)


def test_truncation_depth_rejects_bad_eps():
    theta = ThetaTuple([np.eye(1)])
    for eps in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="eps"):
            truncation_depth(theta, eps)
        # A policy checks eps at construction, even when a depth overrides it.
        with pytest.raises(ConfigError, match="eps"):
            TruncationPolicy(eps=eps, depth=3)


def test_truncation_depth_warns_when_huge():
    theta = ThetaTuple([np.array([[1e-5]])])
    with pytest.warns(RuntimeWarning, match="exceeds"):
        depth = truncation_depth(theta, 1e-8)
    assert depth[0] > 10_000


def test_tail_bound_value_frozen():
    theta = ThetaTuple([np.array([[1.0]])])
    assert tail_bound_value(theta, (10,)) == pytest.approx(
        9.079985952496971e-05, rel=1e-14
    )


def test_policy_resolve_broadcast_and_checks():
    theta = ThetaTuple([np.eye(1), np.eye(1)])
    assert TruncationPolicy(depth=4).resolve(theta) == (4, 4)
    assert TruncationPolicy(depth=(2, 5)).resolve(theta) == (2, 5)
    assert TruncationPolicy(depth=np.int64(3)).resolve(theta) == (3, 3)
    assert TruncationPolicy(depth=[np.int32(2), 4]).resolve(theta) == (2, 4)
    with pytest.raises(ConfigError, match="length"):
        TruncationPolicy(depth=(1, 2, 3)).resolve(theta)
    with pytest.raises(ConfigError, match="non-negative"):
        TruncationPolicy(depth=-1).resolve(theta)


@pytest.mark.parametrize("depth", [True, (True, 2), 1.5, (2, 1.5), "3"])
def test_policy_rejects_non_integer_depth(depth):
    with pytest.raises(ConfigError, match="depth"):
        TruncationPolicy(depth=depth)


def test_policy_default_uses_eps():
    theta = ThetaTuple([np.eye(1)])
    pol = TruncationPolicy(eps=2.0 * math.exp(-10.0))
    assert pol.resolve(theta) == (10,)
    # An integer eps is kept as the float it stands for.
    assert type(TruncationPolicy(eps=1).eps) is float


# ---------------------------------------------------------------------------
# Lamperti maps


def test_lamperti_scalar_hand_values():
    theta = ThetaTuple([np.array([[0.5]])])
    x = FieldWindow(Window((0,), (3,)), np.array([1.0, 1.0, 1.0, 2.0]))
    y = lamperti(x, theta)
    assert y.clock == "exponential"
    # e^{0.5 t} x_t at t = 0..3
    np.testing.assert_allclose(
        y.values[:, 0],
        [1.0, math.exp(0.5), math.exp(1.0), 8.963378140676129],
        rtol=1e-14,
    )


def test_lamperti_inv_scalar_hand_values():
    theta = ThetaTuple([np.array([[0.5]])])
    y = FieldWindow(Window((0,), (2,)), np.ones(3), clock="exponential")
    x = lamperti_inv(y, theta)
    assert x.clock == "integer"
    np.testing.assert_allclose(
        x.values[:, 0], [1.0, math.exp(-0.5), math.exp(-1.0)], rtol=1e-14
    )


@pytest.mark.parametrize("N,n", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_lamperti_roundtrip(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    w = Window((-2,) * N, (2,) * N)
    x = random_field(rng, w, n)
    back = lamperti_inv(lamperti(x, theta), theta)
    scale = np.max(np.abs(x.values))
    assert np.max(np.abs(back.values - x.values)) <= 1e-10 * scale
    assert back.clock == "integer"


def test_lamperti_matches_expm(rng):
    theta = random_commuting_theta(rng, 2, 2)
    w = Window((-1, 0), (1, 2))
    x = random_field(rng, w, 2)
    y = lamperti(x, theta)
    for t in w.sites():
        e = scipy.linalg.expm(star(t, theta))
        np.testing.assert_allclose(y.at(t), e @ x.at(t), rtol=1e-10, atol=1e-12)


def test_lamperti_requires_integer_clock(rng):
    theta = random_commuting_theta(rng, 1, 1)
    y = random_field(rng, Window((0,), (2,)), 1, clock="exponential")
    with pytest.raises(DimensionMismatchError, match="integer-clock"):
        lamperti(y, theta)
    x = random_field(rng, Window((0,), (2,)), 1)
    with pytest.raises(DimensionMismatchError, match="exponential-clock"):
        lamperti_inv(x, theta)


def test_lamperti_rejects_noncommuting(rng):
    theta = ThetaTuple([np.diag([1.0, 2.0]), np.array([[1.5, 0.5], [0.5, 1.5]])])
    x = random_field(rng, Window((0, 0), (1, 1)), 2)
    with pytest.raises(CommutationError):
        lamperti(x, theta)


def test_lamperti_meta_chain(rng):
    theta = random_commuting_theta(rng, 1, 1)
    x = random_field(rng, Window((0,), (2,)), 1)
    y = lamperti(x, theta, theta_ref="theta.json")
    z = lamperti_inv(y, theta)
    chain = z.meta["transforms"]
    assert [c["transform"] for c in chain] == ["L", "Linv"]
    assert chain[0]["theta_ref"] == "theta.json"
    assert chain[1]["theta_ref"] == "inline"


# ---------------------------------------------------------------------------
# Forward transform


def test_m_forward_scalar_hand_loop(rng):
    # N = n = 1: G_t = sum_{j=1}^t e^{-j th} (Y_j - Y_{j-1}) for t >= 1,
    # G_0 = 0, and the negated tail sum for t <= -1.
    th = 0.7
    theta = ThetaTuple([np.array([[th]])])
    w = Window((-3,), (3,))
    y = random_field(rng, w, 1, clock="exponential")
    g = m_forward(y, theta)
    assert g.clock == "integer"
    assert g.at((0,))[0] == 0.0
    for t in range(1, 4):
        ref = sum(
            math.exp(-th * j) * (y.at((j,))[0] - y.at((j - 1,))[0])
            for j in range(1, t + 1)
        )
        assert g.at((t,))[0] == pytest.approx(ref, abs=1e-13)
    for t in range(-3, 0):
        ref = -sum(
            math.exp(-th * j) * (y.at((j,))[0] - y.at((j - 1,))[0])
            for j in range(t + 1, 1)
        )
        assert g.at((t,))[0] == pytest.approx(ref, abs=1e-13)


@pytest.mark.parametrize("N,n", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_m_forward_matches_naive(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    w = Window((-2,) * N, (2,) * N)
    y = random_field(rng, w, n, clock="exponential")
    g = m_forward(y, theta)
    ref = m_forward_naive(y, theta)
    np.testing.assert_allclose(g.values, ref, atol=1e-12 * max(1.0, np.max(np.abs(ref))))


def test_m_forward_zero_hyperplanes_exact(rng):
    theta = random_commuting_theta(rng, 2, 2)
    y = random_field(rng, Window((-2, -2), (2, 2)), 2, clock="exponential")
    g = m_forward(y, theta)
    assert np.all(g.values[g.window.index((0, -2))[0], :, :] == 0.0)
    assert np.all(g.values[:, g.window.index((-2, 0))[1], :] == 0.0)


def test_m_forward_increment_identity(rng):
    # unit_increment(G, t) = e^{-t*Theta} unit_increment(Y, t) at 1e-12.
    for N, n in ((1, 1), (2, 2), (3, 2)):
        theta = random_commuting_theta(rng, N, n)
        w = Window((-2,) * N, (2,) * N)
        y = random_field(rng, w, n, clock="exponential")
        g = m_forward(y, theta)
        dy = unit_increment_field(y)
        for t in dy.window.sites():
            e = scipy.linalg.expm(-star(t, theta))
            np.testing.assert_allclose(
                unit_increment(g, t), e @ dy.at(t), atol=1e-12
            )


def test_m_forward_window_must_contain_zero(rng):
    theta = random_commuting_theta(rng, 1, 1)
    y = random_field(rng, Window((1,), (4,)), 1, clock="exponential")
    with pytest.raises(WindowError, match="lo <= 0 <= hi"):
        m_forward(y, theta)


# ---------------------------------------------------------------------------
# Truncated inverse


def test_m_inverse_scalar_hand_loop(rng):
    th = 0.6
    theta = ThetaTuple([np.array([[th]])])
    g = random_field(rng, Window((-6,), (3,)), 1)
    out = Window((-2,), (3,))
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=3), out_window=out)
    assert y.clock == "exponential"
    for t in range(-2, 4):
        ref = sum(
            math.exp(th * j) * (g.at((j,))[0] - g.at((j - 1,))[0])
            for j in range(-5, t + 1)
        )
        assert y.at((t,))[0] == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("N,n", [(1, 2), (2, 1), (2, 2)])
def test_m_inverse_matches_naive(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    g = random_field(rng, Window((-5,) * N, (2,) * N), n)
    out = Window((-1,) * N, (2,) * N)
    depth = (2,) * N
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=2), out_window=out)
    ref = m_inverse_naive(g, theta, depth, out)
    np.testing.assert_allclose(
        y.values, ref, atol=1e-11 * max(1.0, np.max(np.abs(ref)))
    )


def test_m_inverse_default_window(rng):
    theta = random_commuting_theta(rng, 2, 1)
    g = random_field(rng, Window((-6, -6), (2, 2)), 1)
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=3))
    assert y.window == Window((-2, -2), (2, 2))


def test_m_inverse_margin_error(rng):
    theta = random_commuting_theta(rng, 1, 1)
    g = random_field(rng, Window((-2,), (2,)), 1)
    with pytest.raises(WindowError, match="covering"):
        m_inverse_truncated(
            g, theta, TruncationPolicy(depth=4), out_window=Window((0,), (2,))
        )


def test_m_inverse_increment_identity_depth_independent(rng):
    # The increment identity holds exactly for any depth because the lower
    # summation corner is pinned to out.lo - depth.
    theta = random_commuting_theta(rng, 2, 2)
    g = random_field(rng, Window((-8, -8), (2, 2)), 2)
    out = Window((0, 0), (2, 2))
    for d in (0, 2, 5):
        y = m_inverse_truncated(g, theta, TruncationPolicy(depth=d), out_window=out)
        dy = unit_increment_field(y)
        for t in dy.window.sites():
            e = scipy.linalg.expm(star(t, theta))
            np.testing.assert_allclose(
                dy.at(t), e @ unit_increment(g, t), atol=1e-11
            )


def test_m_inverse_meta_records_depth_and_tail(rng):
    theta = random_commuting_theta(rng, 1, 1, lo=0.9, hi=1.1)
    g = random_field(rng, Window((-8,), (2,)), 1)
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=4))
    rec = y.meta["transforms"][-1]
    assert rec["transform"] == "Minv"
    assert rec["depth"] == [4]
    assert rec["tail_bound"] == pytest.approx(
        2.0 * math.exp(-theta.min_eigenvalue * 4), rel=1e-12
    )


def test_deeper_truncation_moves_output_within_tail_bound(rng):
    theta = random_commuting_theta(rng, 2, 1, lo=0.8, hi=1.3)
    g = random_field(rng, Window((-14, -14), (2, 2)), 1)
    out = Window((0, 0), (2, 2))
    y1 = m_inverse_truncated(g, theta, TruncationPolicy(depth=4), out_window=out)
    y2 = m_inverse_truncated(g, theta, TruncationPolicy(depth=8), out_window=out)
    dg = unit_increment_field(g)
    # the recorded bound is relative; absolutize by the noise increment
    # scale times the largest output magnitude factor e^{hi*Theta}
    scale = np.max(np.abs(dg.values)) * spectral_norm(theta.exp(out.hi))
    bound = tail_bound_value(theta, (4, 4)) * scale
    assert np.max(np.abs(y1.values - y2.values)) <= bound


BIG = 1e307


def _refuses_quietly(fn, *args, **kwargs):
    """fn raises NumericRangeError ("double range") without a float warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="double range"):
            fn(*args, **kwargs)


def test_lamperti_refuses_non_finite_result():
    # The weights e^{t} on 0..5 are finite; e^{5} * 1e307 is not.
    theta = ThetaTuple([np.array([[1.0]])])
    _refuses_quietly(lamperti, FieldWindow(Window((0,), (5,)), np.full(6, BIG)), theta)


def test_lamperti_inv_refuses_non_finite_result():
    theta = ThetaTuple([np.array([[1.0]])])
    y = FieldWindow(Window((-5,), (0,)), np.full(6, BIG), "exponential")
    _refuses_quietly(lamperti_inv, y, theta)
    _refuses_quietly(lamperti_values, np.stack([np.ones((6, 1)), y.values]),
                     y.window, theta, -1)


def test_m_forward_refuses_non_finite_result():
    # Unit increments of alternating +-1e308 overflow before any weight.
    theta = ThetaTuple([np.array([[1.0]])])
    vals = 1e308 * (-1.0) ** np.arange(6)
    _refuses_quietly(m_forward, FieldWindow(Window((-2,), (3,)), vals, "exponential"),
                     theta)


def test_m_inverse_refuses_non_finite_result():
    theta = ThetaTuple([np.array([[1.0]])])
    g = FieldWindow(Window((0,), (8,)), BIG * np.arange(9.0))
    _refuses_quietly(m_inverse_truncated, g, theta, TruncationPolicy(depth=0),
                     out_window=Window((1,), (8,)))


def test_m_inverse_overflow_guard():
    theta = ThetaTuple([np.array([[40.0]])])
    g = FieldWindow(Window((0,), (25,)), np.zeros(26))
    with pytest.raises(NumericRangeError, match="overflow"):
        m_inverse_truncated(g, theta, TruncationPolicy(depth=0),
                            out_window=Window((1,), (25,)))


# ---------------------------------------------------------------------------
# Round trips under anchoring


def zero_on_zero_hyperplanes(x):
    vals = np.array(x.values)
    for axis in range(x.N):
        if x.window.lo[axis] <= 0 <= x.window.hi[axis]:
            sl = [slice(None)] * (x.N + 1)
            sl[axis] = x.window.index(tuple(0 for _ in range(x.N)))[axis]
            vals[tuple(sl)] = 0.0
    return FieldWindow(x.window, vals, x.clock)


@pytest.mark.parametrize("N,n", [(1, 1), (2, 2), (3, 1)])
def test_forward_then_inverse_recovers_anchored_field(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    w = Window((-2,) * N, (2,) * N)
    y = anchored_field(rng, w, n, clock="exponential")
    g = m_forward(y, theta)
    out = Window((-1,) * N, (2,) * N)
    back = m_inverse_truncated(g, theta, TruncationPolicy(depth=0), out_window=out)
    scale = max(1.0, np.max(np.abs(y.values)))
    sl = tuple(slice(1, None) for _ in range(N))
    assert np.max(np.abs(back.values - y.values[sl])) <= 1e-10 * scale


@pytest.mark.parametrize("N,n", [(1, 1), (2, 2)])
def test_inverse_then_forward_recovers_anchored_noise(rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    w = Window((-3,) * N, (3,) * N)
    g = zero_on_zero_hyperplanes(random_field(rng, w, n))
    out = Window((-2,) * N, (3,) * N)
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=0), out_window=out)
    g2 = m_forward(y, theta)
    sub = tuple(slice(1, None) for _ in range(N))
    scale = max(1.0, np.max(np.abs(g.values)))
    assert np.max(np.abs(g2.values - g.values[sub])) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Eigenbasis route against per-site exponentials


def sitewise(values, window, theta, sign):
    """e^{sign * t * Theta} v_t at every site, one mat_exp_sym per site."""
    out = np.zeros_like(values)
    for t in window.sites():
        idx = window.index(t)
        e = mat_exp_sym(star_index(tuple(sign * v for v in t), theta))
        out[idx] = e @ values[idx]
    return out


def assert_rel_close(got, ref, rtol):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def clustered_theta(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    mats = [(q * np.array(lam)) @ q.T for lam in ([0.5, 0.5, 1.2], [0.7, 1.1, 1.1])]
    return ThetaTuple([(m + m.T) / 2.0 for m in mats])


def degenerate_sum_theta(rng):
    # Theta_1 + Theta_2 = 3I in a rotated basis.
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    mats = [(q * np.array(lam)) @ q.T for lam in ([1.0, 2.0], [2.0, 1.0])]
    return ThetaTuple([(m + m.T) / 2.0 for m in mats])


def close_eigenvalues_theta(swap):
    # Theta_1 has eigenvalues 1e-6 apart, so its eigenvectors alone are
    # fixed only to ~1e-10; that must not leak into the basis, in either
    # order of the tuple.
    c, s = math.cos(0.4), math.sin(0.4)
    r = np.array([[c, -s], [s, c]])
    mats = [(r * lam) @ r.T for lam in ([0.7, 0.700001], [1.0, 2.0])]
    mats = [(m + m.T) / 2.0 for m in mats]
    return ThetaTuple(mats[::-1] if swap else mats)


EIGEN_CASES = {
    "close-eigenvalues": lambda rng: close_eigenvalues_theta(False),
    "close-eigenvalues-swapped": lambda rng: close_eigenvalues_theta(True),
    "degenerate-sum": degenerate_sum_theta,
    "clustered": clustered_theta,
    "scalar": lambda rng: derive_theta(HurstSpec([[0.3, 0.7], [0.3, 0.7]])),
    "random": lambda rng: random_commuting_theta(rng, 2, 3),
}


@pytest.mark.parametrize("case", sorted(EIGEN_CASES))
def test_eigenbasis_transforms_match_sitewise_oracle(rng, case):
    theta = EIGEN_CASES[case](rng)
    w = Window((-3, -2), (2, 3))
    x = random_field(rng, w, theta.n)
    y = lamperti(x, theta)
    assert_rel_close(y.values, sitewise(x.values, w, theta, +1), 1e-12)
    assert_rel_close(lamperti_inv(y, theta).values, sitewise(y.values, w, theta, -1), 1e-12)
    # M and Minv: the unit increments are reweighted site by site.
    g = m_forward(y, theta)
    dy, dg = unit_increment_field(y), unit_increment_field(g)
    assert_rel_close(dg.values, sitewise(dy.values, dy.window, theta, -1), 1e-12)
    back = m_inverse_truncated(g, theta, TruncationPolicy(depth=0),
                               out_window=Window((-2, -1), (2, 3)))
    db = unit_increment_field(back)
    dg_sub = dg.values[1:, 1:]
    assert_rel_close(db.values, sitewise(dg_sub, db.window, theta, +1), 1e-12)


def test_nearly_commuting_tuple_matches_oracle_or_raises(rng):
    # Commuting within 1e-10 does not guarantee one shared basis: the
    # transforms must either agree with per-site exponentials to 1e-10 or
    # refuse.  Both outcomes occur across these angles.
    x = random_field(rng, Window((-20, -20), (20, 20)), 2)
    outcomes = set()
    for angle in (1e-15, 1e-13, 1e-12, 1e-10):
        c, s = math.cos(angle), math.sin(angle)
        r = np.array([[c, -s], [s, c]])
        m = (r * [1.5, 0.7]) @ r.T
        theta = ThetaTuple([np.diag([1.0, 2.0]), (m + m.T) / 2.0])
        assert theta.commuting and 0.0 < theta.commutation_defect <= 1e-10
        try:
            y = lamperti(x, theta)
        except CommutationError as exc:
            assert "joint eigenbasis" in str(exc)
            outcomes.add("raised")
            continue
        assert_rel_close(y.values, sitewise(x.values, x.window, theta, +1), 1e-10)
        outcomes.add("matched")
    assert outcomes == {"matched", "raised"}


def as_exponential(x):
    return FieldWindow(x.window, x.values, "exponential")


@pytest.mark.parametrize("window", [Window((-7,), (25,)), Window((-10, 0), (5, 20))])
@pytest.mark.parametrize("sign", [1, -1])
def test_overflow_guard_boundary(window, sign):
    # A scalar tuple w puts the largest weight at exp(w * reach); the guard
    # refuses exactly when that exponent passes log(finfo.max).
    log_max = math.log(np.finfo(float).max)
    reach = max(sign * sum(t) for t in window.sites())
    op = lamperti if sign > 0 else (lambda f, th: lamperti_inv(as_exponential(f), th))
    x = FieldWindow(window, np.ones(window.shape + (1,)))
    below = ThetaTuple([np.array([[log_max / reach * (1 - 1e-12)]])] * window.N)
    y = op(x, below)
    assert np.all(np.isfinite(y.values))
    assert y.values.max() > 0.999 * np.finfo(float).max
    above = ThetaTuple([np.array([[log_max / reach * (1 + 1e-12)]])] * window.N)
    with pytest.raises(NumericRangeError, match="overflow"):
        op(x, above)


def test_transforms_form_no_sitewise_exponentials(rng, monkeypatch):
    theta = random_commuting_theta(rng, 2, 2)

    def refuse(self, t):
        raise AssertionError("per-site matrix exponential")

    monkeypatch.setattr(ThetaTuple, "exp", refuse)
    g = random_field(rng, Window((-4, -4), (2, 2)), 2)
    x = lamperti_inv(m_inverse_truncated(g, theta, TruncationPolicy(depth=1)), theta)
    m_forward(lamperti(x, theta), theta)


def test_lamperti_inv_batch_matches_single_calls(rng):
    theta = random_commuting_theta(rng, 2, 3)
    w = Window((-2, 0), (1, 2))
    ys = [random_field(rng, w, 3, clock="exponential") for _ in range(4)]
    stacked = np.stack([y.values for y in ys])
    for y, b in zip(ys, lamperti_values(stacked, w, theta, -1)):
        assert b.tobytes() == lamperti_inv(y, theta).values.tobytes()
    with pytest.raises(DimensionMismatchError, match="window shape"):
        lamperti_values(stacked, Window((0, 0), (1, 1)), theta, -1)
    with pytest.raises(DimensionMismatchError, match="N=1, tuple has N=2"):
        lamperti_values(stacked[..., 0, :], Window((-2,), (1,)), theta, -1)


# ---------------------------------------------------------------------------
# Round trips as properties: criterion 4's chains over random windows, n, N
# and commuting tuples, clustered spectra included, at depth 0.


def property_theta(rng, N, n, clustered):
    """A commuting tuple with one random eigenbasis.  Its spectra are spread
    over [0.4, 1.4], or clustered: each eigenvalue one of a, a + 1e-9 and b,
    so that exact and near ties occur within and across the matrices."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mats = []
    for _ in range(N):
        if clustered:
            a, b = rng.uniform(0.4, 1.4, size=2)
            lam = rng.choice([a, a + 1e-9, b], size=n)
        else:
            lam = rng.uniform(0.4, 1.4, size=n)
        m = (q * lam) @ q.T
        mats.append((m + m.T) / 2.0)
    return ThetaTuple(mats)


@st.composite
def round_trip_cases(draw):
    """(rng, theta, window): lo <= -1, hi >= 0 and hi - lo >= 2 on every
    axis, so that M applies on the window and on the window without its
    lower boundary (it needs 0 and two sites on every axis)."""
    N, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-3, -1)) for _ in range(N))
    hi = tuple(draw(st.integers(max(0, l + 2), 2)) for l in lo)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, property_theta(rng, N, n, draw(st.booleans())), Window(lo, hi)


def inner_window(w):
    """The window without its lower boundary hyperplanes, and its slice."""
    return (Window(tuple(l + 1 for l in w.lo), w.hi),
            tuple(slice(1, None) for _ in range(w.N)))


DEPTH0 = TruncationPolicy(depth=0)


@settings(max_examples=60, deadline=None)
@given(case=round_trip_cases())
def test_property_lamperti_inv_after_lamperti(case):
    rng, theta, w = case
    x = random_field(rng, w, theta.n)
    assert_rel_close(lamperti_inv(lamperti(x, theta), theta).values, x.values, 1e-10)


@settings(max_examples=60, deadline=None)
@given(case=round_trip_cases())
def test_property_m_inverse_after_m_forward(case):
    # Anchored on the lower boundary, y is the sum of its unit increments,
    # which Minv rebuilds from those of M(y).
    rng, theta, w = case
    inner, sub = inner_window(w)
    y = anchored_field(rng, w, theta.n, clock="exponential")
    back = m_inverse_truncated(m_forward(y, theta), theta, DEPTH0, inner)
    assert_rel_close(back.values, y.values[sub], 1e-10)


@settings(max_examples=60, deadline=None)
@given(case=round_trip_cases())
def test_property_m_forward_after_m_inverse(case):
    # M vanishes on the zero hyperplanes, so g must too.
    rng, theta, w = case
    inner, sub = inner_window(w)
    g = zero_on_zero_hyperplanes(random_field(rng, w, theta.n))
    fwd = m_forward(m_inverse_truncated(g, theta, DEPTH0, inner), theta)
    assert_rel_close(fwd.values, g.values[sub], 1e-10)


@settings(max_examples=60, deadline=None)
@given(case=round_trip_cases(), depth=st.integers(1, 3))
def test_property_increment_identities(case, depth):
    # At every interior site t, unit_increment(Minv(G), t) =
    # e^{t*Theta} unit_increment(G, t) whatever the depth, and
    # unit_increment(M(Y), t) = e^{-t*Theta} unit_increment(Y, t).
    rng, theta, w = case
    inner = inner_window(w)[0]
    g = random_field(rng, Window(tuple(l - depth - 1 for l in w.lo), w.hi), theta.n)
    y = m_inverse_truncated(g, theta, TruncationPolicy(depth=depth), w)
    x = random_field(rng, w, theta.n, clock="exponential")
    fwd = m_forward(x, theta)
    for field, source, sign in ((y, g, 1), (fwd, x, -1)):
        got = np.array([unit_increment(field, t) for t in inner.sites()])
        want = np.array([scipy.linalg.expm(sign * star(t, theta)) @ unit_increment(source, t)
                         for t in inner.sites()])
        assert_rel_close(got, want, 1e-10)
