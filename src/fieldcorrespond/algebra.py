"""Matrix-tuple algebra for anisotropic scaling exponents.

A scaling exponent on an N-parameter field with values in R^n is a tuple
Theta = (Theta_1, ..., Theta_N) of symmetric positive-definite n x n
matrices.  Two contractions appear throughout the package:

* ``star_index(t, theta)``  -- the matrix  sum_j t_j * Theta_j,
* ``star_apply(theta, vectors)`` -- the vector  sum_j Theta_j @ v_j.

For n = 1 both reduce to ordinary inner products.

Matrix exponentials of symmetric matrices are computed through the
symmetric eigendecomposition (Q diag(e^lambda) Q^T), never through a
Pade approximation, so the result is symmetric positive definite by
construction.  A commuting tuple shares one orthonormal eigenbasis Q with
per-axis spectra W (N x n), so e^{t*Theta} = Q diag(exp(sum_j t_j W_j)) Q^T
for every index t at once; ``joint_eigenbasis`` finds it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._jsonio import dump_json, load_json
from .errors import CommutationError, DimensionMismatchError, check_int

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12
# Relative commutator-defect threshold below which a tuple counts as commuting.
COMMUTATION_RTOL = 1e-10
# Largest off-diagonal part E_j of Q^T Theta_j Q (Frobenius norm, relative
# to the largest |eigenvalue| of Theta_j) that the joint eigenbasis may
# leave.  Dropping E_j moves e^{t*Theta} by about sum_j |t_j| ||E_j||
# relative to its norm, under 1e-10 while sum_j |t_j| max|W_j| (the size of
# the exponents) stays below 1000.  Eigenvalues closer than this (same
# scale) form a cluster.
EIGENBASIS_RTOL = 1e-13
# Most Jacobi sweeps that polish a joint eigenbasis left above
# EIGENBASIS_RTOL.  One sweep reached rounding level on every one of 36,000
# random commuting tuples tried (N <= 3, n <= 6, spread and clustered
# spectra); the second is a margin.
JACOBI_SWEEPS = 2


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``.

    Computed from the symmetric eigendecomposition of ``a.T @ a`` so that
    symmetric, skew-symmetric and general square inputs are all handled by
    the same routine.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    w = np.linalg.eigvalsh(a.T @ a)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


def _check_symmetric(a: np.ndarray, what: str) -> None:
    defect = spectral_norm(a - a.T)
    scale = spectral_norm(a)
    if defect > SYMMETRY_RTOL * scale:
        raise DimensionMismatchError(
            f"{what} is not symmetric: asymmetry {defect:.3e} exceeds "
            f"{SYMMETRY_RTOL:g} * norm ({scale:.3e})"
        )


def mat_exp_sym(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix.

    Uses the eigendecomposition ``a = Q diag(w) Q^T`` and returns
    ``Q diag(exp(w)) Q^T``, re-symmetrized to remove rounding skew.  The
    result is symmetric positive definite for any symmetric input.
    """
    a = np.asarray(a, dtype=float)
    _check_symmetric(a, "mat_exp_sym input")
    w, q = np.linalg.eigh(a)
    r = (q * np.exp(w)) @ q.T
    return (r + r.T) / 2.0


def star_index(t: Sequence[float], theta: "ThetaTuple") -> np.ndarray:
    """Contraction ``sum_j t_j * Theta_j`` of an index against the tuple."""
    t = np.asarray(t, dtype=float)
    if t.shape != (theta.N,):
        raise DimensionMismatchError(
            f"index has length {t.shape}, tuple has N={theta.N} axes"
        )
    return np.tensordot(t, theta.stacked, axes=1)


def star_apply(theta: "ThetaTuple", vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Contraction ``sum_j Theta_j @ v_j`` of the tuple against N vectors."""
    v = np.asarray(vectors, dtype=float)
    if v.shape != (theta.N, theta.n):
        raise DimensionMismatchError(
            f"expected {theta.N} vectors of length {theta.n}, got shape {v.shape}"
        )
    return np.einsum("jab,jb->a", theta.stacked, v)


def commutation_defect(mats: Sequence[np.ndarray]) -> float:
    """Largest relative commutator norm over all pairs of matrices."""
    worst = 0.0
    norms = [spectral_norm(m) for m in mats]
    for j in range(len(mats)):
        for l in range(j + 1, len(mats)):
            comm = mats[j] @ mats[l] - mats[l] @ mats[j]
            denom = norms[j] * norms[l]
            if denom > 0.0:
                worst = max(worst, spectral_norm(comm) / denom)
    return worst


def joint_eigenbasis(mats: Sequence[np.ndarray]) -> tuple:
    """Shared eigenbasis ``(Q, W, defect)`` of nonzero symmetric matrices.

    Starts from ``eigh`` of the fixed combination
    ``C = sum_j pi^-j mats[j] / ||mats[j]||``.  Two joint eigenvalues that
    differ in some matrix differ in C by about as much relative to its
    norm, so each eigenvector comes out accurate to rounding relative to
    the gaps that matter, however close the eigenvalues of any single
    matrix are; and no rational relation holds between powers of 1/pi, so
    a degenerate sum such as ``diag(1, 2) + diag(2, 1)`` does not tie in
    C.  Each matrix is then diagonalized on every cluster of equal
    eigenvalues left (successive refinement), which splits the ties C
    cannot see.  ``W[j]`` is the diagonal of ``Q^T mats[j] Q`` and
    ``defect`` the largest relative Frobenius norm of its off-diagonal
    part; it is at rounding level for a commuting tuple and large for a
    non-commuting one.

    A gap of C can still be much smaller than the gap the same pair has
    in one of the matrices, and rounding then tilts the pair by more than
    that matrix tolerates.  A basis left above ``EIGENBASIS_RTOL`` is
    polished by Jacobi sweeps (``_jacobi_sweep``) when the matrices commute
    to ``COMMUTATION_RTOL``; one that meets it is returned as it is.
    """
    n = mats[0].shape[0]
    mix = sum(np.pi ** -j * m / np.linalg.norm(m) for j, m in enumerate(mats))
    q = np.eye(n)
    clusters = [np.arange(n)]
    for m in [mix, *mats]:
        parts = [(idx, *np.linalg.eigh(q[:, idx].T @ m @ q[:, idx])) for idx in clusters]
        tol = EIGENBASIS_RTOL * max(float(np.max(np.abs(w))) for _, w, _ in parts)
        clusters = []
        for idx, w, v in parts:
            q[:, idx] = q[:, idx] @ v
            clusters += np.split(idx, np.flatnonzero(np.diff(w) > tol) + 1)
    stacked = np.stack(mats)
    for sweep in range(JACOBI_SWEEPS + 1):
        rot = np.einsum("ai,jab,bk->jik", q, stacked, q)
        w = np.diagonal(rot, axis1=1, axis2=2).copy()
        off = rot - w[:, :, np.newaxis] * np.eye(n)
        scale = np.max(np.abs(w), axis=1)
        defect = float(np.max(np.linalg.norm(off, axis=(1, 2)) / scale))
        # No rotation diagonalizes a tuple that does not commute.
        if (defect <= EIGENBASIS_RTOL or sweep == JACOBI_SWEEPS
                or sweep == 0 and commutation_defect(mats) > COMMUTATION_RTOL):
            return q, w, defect
        _jacobi_sweep(q, rot, scale)


def _jacobi_sweep(q: np.ndarray, rot: np.ndarray, scale: np.ndarray) -> None:
    """One cyclic Jacobi sweep over the column pairs of ``q``, in place.

    ``rot[j]`` is ``Q^T mats[j] Q`` and is kept so.  Each pair (i, k) is
    rotated by the smallest angle (at most pi/4, so no two columns swap)
    that zeroes its off-diagonal entry in the matrix that separates it
    most, by the largest ``|W[j][i] - W[j][k]| / scale[j]``.  That matrix
    fixes the pair's eigenvectors best; the others separate it less, so
    the rotation leaves them rounding-level entries.
    A pair that no matrix separates beyond ``EIGENBASIS_RTOL`` spans a
    joint eigenspace and is left alone.
    """
    n = q.shape[0]
    for i in range(n - 1):
        for k in range(i + 1, n):
            sep = np.abs(rot[:, i, i] - rot[:, k, k]) / scale
            j = int(np.argmax(sep))
            if sep[j] <= EIGENBASIS_RTOL:
                continue
            t = 0.5 * np.arctan(2.0 * rot[j, i, k] / (rot[j, i, i] - rot[j, k, k]))
            g = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            pair = [i, k]
            q[:, pair] = q[:, pair] @ g
            rot[:, :, pair] = rot[:, :, pair] @ g
            rot[:, pair, :] = g.T @ rot[:, pair, :]


class ThetaTuple:
    """Tuple of N symmetric positive-definite n x n scaling matrices.

    Symmetry and positive definiteness are enforced at construction; the
    commuting flag is evaluated once (true iff every pairwise relative
    commutator defect is at most 1e-10) and exposed as a property, and so
    is the joint eigenbasis that the window transforms apply.  Instances
    are immutable; ``exp(t)`` computes the matrix exponential of a single
    integer contraction for the few callers that need whole matrices (the
    AR(1) drift, the mixing check, edge-decay norms).
    """

    def __init__(self, mats: Sequence[np.ndarray]):
        mats = [np.array(m, dtype=float) for m in mats]
        if len(mats) == 0:
            raise DimensionMismatchError("ThetaTuple needs at least one matrix")
        n = mats[0].shape[0] if mats[0].ndim == 2 else -1
        eigs = []
        for j, m in enumerate(mats):
            if m.ndim != 2 or m.shape != (n, n):
                raise DimensionMismatchError(
                    f"Theta[{j}] has shape {m.shape}, expected ({n}, {n})"
                )
            if not np.all(np.isfinite(m)):
                raise DimensionMismatchError(f"Theta[{j}] has non-finite entries")
            _check_symmetric(m, f"Theta[{j}]")
            w = np.linalg.eigvalsh(m)
            if w[0] <= 0.0:
                raise DimensionMismatchError(
                    f"Theta[{j}] is not positive definite "
                    f"(smallest eigenvalue {w[0]:.6e})"
                )
            eigs.append(float(w[0]))
            m.setflags(write=False)
        self._mats = tuple(mats)
        self._stacked = np.stack(mats)
        self._stacked.setflags(write=False)
        self._min_eig = min(eigs)
        self._defect = commutation_defect(mats)
        self._q, self._w, self._basis_defect = joint_eigenbasis(mats)
        self._q.setflags(write=False)
        self._w.setflags(write=False)

    @property
    def n(self) -> int:
        return self._mats[0].shape[0]

    @property
    def N(self) -> int:
        return len(self._mats)

    @property
    def mats(self) -> tuple:
        return self._mats

    @property
    def stacked(self) -> np.ndarray:
        """All matrices as one read-only (N, n, n) array."""
        return self._stacked

    @property
    def commuting(self) -> bool:
        return self._defect <= COMMUTATION_RTOL

    @property
    def commutation_defect(self) -> float:
        return self._defect

    @property
    def min_eigenvalue(self) -> float:
        return self._min_eig

    def eigenbasis(self, what: str = "operation") -> tuple:
        """Read-only ``(Q, W)`` with ``Theta_j = Q diag(W[j]) Q^T``.

        Raises CommutationError when the tuple is not commuting, or when
        no single basis diagonalizes it to ``EIGENBASIS_RTOL`` (a tuple
        within the 1e-10 commutator tolerance need not be).
        """
        self.require_commuting(what)
        if self._basis_defect > EIGENBASIS_RTOL:
            raise CommutationError(
                f"{what} needs a joint eigenbasis; the best one found leaves a "
                f"relative off-diagonal defect {self._basis_defect:.3e} above "
                f"{EIGENBASIS_RTOL:g}"
            )
        return self._q, self._w

    def exp(self, t: Sequence[int]) -> np.ndarray:
        """Read-only ``mat_exp_sym(star_index(t, self))`` for an integer index."""
        key = tuple(int(x) for x in t)
        if len(key) != self.N or any(k != x for k, x in zip(key, t)):
            raise DimensionMismatchError(
                f"exp() expects an integer index of length {self.N}, got {t!r}"
            )
        e = mat_exp_sym(star_index(key, self))
        e.setflags(write=False)
        return e

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "mats": [m.reshape(-1).tolist() for m in self._mats],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ThetaTuple":
        """The tuple of a ``{"n", "N", "mats"}`` object with integer n, N >= 1."""
        try:
            n = check_int(d["n"], "ThetaTuple n", 1)
            nn = check_int(d["N"], "ThetaTuple N", 1)
            flat = d["mats"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"malformed ThetaTuple dict: {exc}") from exc
        if len(flat) != nn:
            raise DimensionMismatchError(
                f"ThetaTuple dict declares N={nn} but carries {len(flat)} matrices"
            )
        mats = []
        for j, row in enumerate(flat):
            m = np.asarray(row, dtype=float)
            if m.shape != (n * n,):
                raise DimensionMismatchError(
                    f"Theta[{j}] flat data has length {m.size}, expected {n * n}"
                )
            mats.append(m.reshape(n, n))
        return cls(mats)

    def save(self, path) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "ThetaTuple":
        return cls.from_dict(load_json(path))

    def require_commuting(self, what: str = "operation") -> None:
        if not self.commuting:
            raise CommutationError(
                f"{what} requires a commuting tuple; max relative commutator "
                f"defect {self._defect:.3e} exceeds {COMMUTATION_RTOL:g}"
            )

    def __repr__(self) -> str:
        return f"ThetaTuple(n={self.n}, N={self.N}, commuting={self.commuting})"
