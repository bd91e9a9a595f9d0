"""Tests for the matrix-tuple algebra.

Oracles: numpy SVD for spectral norms, a plain Taylor series and
scipy.linalg.expm for matrix exponentials, and hand-frozen constants for
the contractions.
"""

import numpy as np
import pytest
import scipy.linalg

from fieldcorrespond import (
    COMMUTATION_RTOL,
    CommutationError,
    DimensionMismatchError,
    ThetaTuple,
    commutation_defect,
    mat_exp_sym,
    spectral_norm,
    star_apply,
    star_index,
)
from fieldcorrespond.algebra import EIGENBASIS_RTOL, joint_eigenbasis

from conftest import random_commuting_theta, random_spd


def exp_series(a, terms=40):
    """Independent matrix exponential: truncated Taylor series."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_spectral_norm_frozen():
    # sigma_max of [[3,0],[4,5]]: A^T A has eigenvalues 45 and 5.
    a = np.array([[3.0, 0.0], [4.0, 5.0]])
    assert spectral_norm(a) == pytest.approx(6.708203932499369, rel=1e-14)


def test_spectral_norm_matches_svd(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        assert spectral_norm(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-12
        )


def test_spectral_norm_rejects_vectors():
    with pytest.raises(DimensionMismatchError, match="matrix"):
        spectral_norm(np.ones(3))


def test_mat_exp_sym_diagonal():
    e = mat_exp_sym(np.diag([1.0, 0.0, -2.0]))
    expected = np.diag([2.718281828459045, 1.0, np.exp(-2.0)])
    np.testing.assert_allclose(e, expected, rtol=1e-14, atol=0.0)


def test_mat_exp_sym_against_series(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = random_spd(rng, n, shift=0.1) - 0.5 * np.eye(n)
        np.testing.assert_allclose(mat_exp_sym(a), exp_series(a), atol=1e-12)


def test_mat_exp_sym_against_expm(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = random_spd(rng, n)
        e = mat_exp_sym(a)
        # Different algorithms (eigendecomposition vs Pade): compare with an
        # absolute floor tied to the matrix scale for near-cancelling entries.
        np.testing.assert_allclose(
            e, scipy.linalg.expm(a), rtol=1e-10, atol=1e-13 * spectral_norm(e)
        )


def test_mat_exp_inverse_identity(rng):
    # exp(A) exp(-A) = I within 1e-10 is part of the algebra contract.
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = random_spd(rng, n)
        prod = mat_exp_sym(a) @ mat_exp_sym(-a)
        assert spectral_norm(prod - np.eye(n)) < 1e-10


def test_mat_exp_sym_output_is_symmetric(rng):
    a = random_spd(rng, 4)
    e = mat_exp_sym(a)
    assert np.array_equal(e, e.T)


def test_mat_exp_sym_rejects_asymmetric():
    with pytest.raises(DimensionMismatchError, match="not symmetric"):
        mat_exp_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_star_index_frozen():
    theta = ThetaTuple([np.eye(2), np.diag([1.0, 2.0])])
    np.testing.assert_array_equal(
        star_index((2, -1), theta), np.diag([1.0, 0.0])
    )


def test_star_index_length_check():
    theta = ThetaTuple([np.eye(2)])
    with pytest.raises(DimensionMismatchError, match="N=1"):
        star_index((1, 2), theta)


def test_star_apply_frozen():
    theta = ThetaTuple([np.eye(2), np.diag([1.0, 2.0])])
    v = np.array([[1.0, 1.0], [3.0, -1.0]])
    # I @ (1,1) + diag(1,2) @ (3,-1) = (1,1) + (3,-2) = (4,-1)
    np.testing.assert_array_equal(star_apply(theta, v), [4.0, -1.0])


def test_star_apply_shape_check():
    theta = ThetaTuple([np.eye(2)])
    with pytest.raises(DimensionMismatchError, match="vectors"):
        star_apply(theta, np.ones((2, 2)))


@pytest.mark.parametrize("N,n", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_theta_tuple_roundtrip(tmp_path, rng, N, n):
    theta = random_commuting_theta(rng, N, n)
    path = tmp_path / "theta.json"
    theta.save(path)
    back = ThetaTuple.load(path)
    assert back.n == n and back.N == N
    for a, b in zip(theta.mats, back.mats):
        np.testing.assert_array_equal(a, b)


def test_theta_tuple_rejects_empty():
    with pytest.raises(DimensionMismatchError, match="at least one"):
        ThetaTuple([])


def test_theta_tuple_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError, match="shape"):
        ThetaTuple([np.ones((2, 3))])


def test_theta_tuple_rejects_asymmetric():
    with pytest.raises(DimensionMismatchError, match="Theta\\[0\\]"):
        ThetaTuple([np.array([[1.0, 0.5], [0.0, 1.0]])])


def test_theta_tuple_rejects_indefinite():
    good = np.eye(2)
    bad = np.diag([1.0, -0.25])
    with pytest.raises(DimensionMismatchError, match="Theta\\[1\\].*positive definite"):
        ThetaTuple([good, bad])


def test_theta_tuple_rejects_nonfinite():
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        ThetaTuple([np.array([[np.inf, 0.0], [0.0, 1.0]])])


def test_commuting_flag_shared_eigvectors(rng):
    theta = random_commuting_theta(rng, 3, 3)
    assert theta.commuting
    assert theta.commutation_defect <= COMMUTATION_RTOL


def test_noncommuting_pair_detected():
    a = np.diag([1.0, 2.0])
    r = np.array([[1.5, 0.5], [0.5, 1.5]])
    theta = ThetaTuple([a, r])
    assert not theta.commuting
    assert theta.commutation_defect > 1e-3
    with pytest.raises(CommutationError, match="commuting"):
        theta.require_commuting("test op")


def test_commutation_defect_zero_for_single():
    assert commutation_defect([np.diag([1.0, 2.0])]) == 0.0


def test_min_eigenvalue_frozen():
    theta = ThetaTuple([np.diag([0.75, 2.0]), np.diag([1.5, 3.0])])
    assert theta.min_eigenvalue == pytest.approx(0.75, rel=1e-12)


def test_exp_repeatable_and_readonly(rng):
    theta = random_commuting_theta(rng, 2, 2)
    e1 = theta.exp((1, -2))
    e2 = theta.exp((1, -2))
    np.testing.assert_array_equal(e1, e2)
    with pytest.raises(ValueError):
        e1[0, 0] = 0.0


def test_exp_rejects_fractional_index(rng):
    theta = random_commuting_theta(rng, 2, 2)
    with pytest.raises(DimensionMismatchError, match="integer index"):
        theta.exp((0.5, 1))


def test_exp_matches_star_index(rng):
    theta = random_commuting_theta(rng, 2, 3)
    t = (2, -1)
    np.testing.assert_allclose(
        theta.exp(t), mat_exp_sym(star_index(t, theta)), rtol=1e-14
    )


def test_mats_are_readonly(rng):
    theta = random_commuting_theta(rng, 1, 2)
    with pytest.raises(ValueError):
        theta.mats[0][0, 0] = 5.0


def test_from_dict_validates():
    with pytest.raises(DimensionMismatchError, match="malformed"):
        ThetaTuple.from_dict({"n": 2})
    with pytest.raises(DimensionMismatchError, match="declares N=2"):
        ThetaTuple.from_dict({"n": 1, "N": 2, "mats": [[1.0]]})
    with pytest.raises(DimensionMismatchError, match="length"):
        ThetaTuple.from_dict({"n": 2, "N": 1, "mats": [[1.0, 0.0, 1.0]]})
    # n and N are integers, not numbers that truncate to one
    with pytest.raises(DimensionMismatchError, match="n must be an integer"):
        ThetaTuple.from_dict({"n": 1.9, "N": True, "mats": [[1.0]]})
    with pytest.raises(DimensionMismatchError, match="N must be an integer"):
        ThetaTuple.from_dict({"n": 1, "N": True, "mats": [[1.0]]})


# ---------------------------------------------------------------------------
# Joint eigenbasis


def assert_joint_basis(mats, q, w, atol=1e-13):
    n = mats[0].shape[0]
    np.testing.assert_allclose(q.T @ q, np.eye(n), atol=atol)
    for m, wj in zip(mats, w):
        np.testing.assert_allclose((q * wj) @ q.T, m, atol=atol * np.max(np.abs(m)))


def test_joint_eigenbasis_degenerate_sum():
    # R diag(1,2) R^T + R diag(2,1) R^T = 3I: a basis from the sum would be
    # arbitrary.
    c, s = np.cos(0.3), np.sin(0.3)
    r = np.array([[c, -s], [s, c]])
    mats = [(r * lam) @ r.T for lam in ([1.0, 2.0], [2.0, 1.0])]
    mats = [(m + m.T) / 2.0 for m in mats]
    q, w, defect = joint_eigenbasis(mats)
    assert defect <= EIGENBASIS_RTOL
    assert_joint_basis(mats, q, w)
    assert sorted(map(tuple, np.round(w.T, 12))) == [(1.0, 2.0), (2.0, 1.0)]
    q, w, defect = joint_eigenbasis([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])])
    assert defect == 0.0


def test_joint_eigenbasis_clustered_spectra(rng):
    # Each matrix alone has a repeated eigenvalue; only the tuple fixes Q.
    q0, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    spectra = [[0.5, 0.5, 0.5, 1.2], [0.7, 0.7, 1.1, 1.1], [0.3, 0.8, 0.3, 0.8]]
    mats = [(q0 * np.array(lam)) @ q0.T for lam in spectra]
    mats = [(m + m.T) / 2.0 for m in mats]
    q, w, defect = joint_eigenbasis(mats)
    assert defect <= EIGENBASIS_RTOL
    assert_joint_basis(mats, q, w)
    assert sorted(map(tuple, np.round(w.T, 12))) == sorted(map(tuple, np.array(spectra).T))


def test_joint_eigenbasis_scalar_tuple():
    mats = [0.3 * np.eye(3), 0.7 * np.eye(3)]
    q, w, defect = joint_eigenbasis(mats)
    assert defect == 0.0
    np.testing.assert_array_equal(w, [[0.3] * 3, [0.7] * 3])


def test_joint_eigenbasis_defect_flags_noncommuting():
    mats = [np.diag([1.0, 2.0]), np.array([[1.5, 0.5], [0.5, 1.5]])]
    assert joint_eigenbasis(mats)[2] > 0.1


def test_eigenbasis_readonly_and_requires_commuting(rng):
    theta = random_commuting_theta(rng, 3, 3)
    q, w = theta.eigenbasis()
    assert w.shape == (3, 3)
    assert_joint_basis(theta.mats, q, w)
    with pytest.raises(ValueError):
        q[0, 0] = 1.0
    bad = ThetaTuple([np.diag([1.0, 2.0]), np.array([[1.5, 0.5], [0.5, 1.5]])])
    with pytest.raises(CommutationError, match="commuting"):
        bad.eigenbasis("test op")
