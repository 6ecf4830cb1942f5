"""Dense linear-algebra kernel.

Thin, contract-checking wrappers around the LAPACK-backed routines in
:mod:`scipy.linalg`. Everything downstream (Gramians, centrality,
optimization) goes through these functions so that precondition checks
and failure mapping live in exactly one place.

The Lyapunov solver is Bartels-Stewart (CACM 15(9), 1972): one real
Schur factorization A = Z T Z^T (``dgees``) gives both the Hurwitz test,
read from the eigenvalues on T's diagonal, and the solve, a triangular
Sylvester equation in T (``dtrsyl``). The SPD metrics read log det W
and tr(W^-1) off one Cholesky factor W = L L^T without forming W^-1.

All matrices are plain ``numpy.ndarray`` in float64; none of the sizes
involved here justify anything fancier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dpotrf, dtrsyl, dtrtri

from .errors import NotPositiveDefiniteError, NumericalError, StabilityError

__all__ = [
    "SpectralSummary",
    "spectral_summary",
    "spectral_abscissa",
    "solve_lyapunov",
    "matrix_exponential",
    "spd_inverse_and_logdet",
    "symmetrize",
]


def _as_square(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2."""
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues of a real matrix plus the largest real part."""

    eigenvalues: np.ndarray
    abscissa: float


def spectral_summary(A) -> SpectralSummary:
    A = _as_square(A)
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # QR iteration failure
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return SpectralSummary(eigenvalues=ev, abscissa=float(np.max(ev.real)))


def spectral_abscissa(A) -> float:
    """Largest real part over the spectrum of ``A``.

    Strictly negative iff ``A`` is Hurwitz.
    """
    return spectral_summary(A).abscissa


def _no_sort(wr, wi) -> int:
    # dgees takes an eigenvalue selection callback even when it does not sort.
    return 0


def _hurwitz_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve ``A X + X A^T + Q = 0`` if ``A`` is Hurwitz, else raise.

    ``Q`` must already be square, finite and symmetric. One ``dgees``
    call gives A = Z T Z^T and the eigenvalues whose largest real part is
    the Hurwitz test; ``dtrsyl`` then solves T Y + Y T^T = -Z^T Q Z, and
    X = Z Y Z^T. ``lwork = 3n`` is ``dgees``'s documented minimum, which
    spares the workspace query.
    """
    if not np.isfinite(A).all():
        raise ValueError("A contains non-finite entries")
    n = A.shape[0]
    T, _, wr, _, Z, _, info = dgees(_no_sort, A, lwork=max(1, 3 * n))
    if info != 0:
        raise NumericalError(f"Schur factorization failed (dgees info {info})")
    alpha = float(wr.max())
    if not alpha < 0.0:
        raise StabilityError(f"A is not Hurwitz (spectral abscissa {alpha:.6g})")
    Y, scale, info = dtrsyl(T, T, -(Z.T @ (Q @ Z)), tranb="T")
    if info != 0:
        raise NumericalError(f"Lyapunov solve failed (dtrsyl info {info})")
    Y /= scale  # dtrsyl scales its right-hand side down to avoid overflow
    X = (Z @ Y) @ Z.T
    if not np.isfinite(X).all():
        raise NumericalError("Lyapunov solve produced non-finite entries")
    # The back-substitution loses symmetry at roundoff level.
    return symmetrize(X)


def solve_lyapunov(A, Q) -> np.ndarray:
    """Solve ``A X + X A^T + Q = 0`` for symmetric ``Q``, Hurwitz ``A``.

    The unique solution is symmetric; it is positive semidefinite
    whenever ``Q`` is. Raises :class:`StabilityError` if ``A`` is not
    Hurwitz (the equation is then singular or the solution loses its
    Gramian meaning) and ``ValueError`` if ``Q`` is visibly asymmetric.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    if A.shape != Q.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Q {Q.shape}")
    scale = max(1.0, float(np.max(np.abs(Q))))
    if np.max(np.abs(Q - Q.T)) > 1e-10 * scale:
        raise ValueError("Q must be symmetric")
    return _hurwitz_lyapunov(A, symmetrize(Q))


def matrix_exponential(A, t: float = 1.0) -> np.ndarray:
    """Compute ``exp(A t)`` by Pade approximation with scaling and squaring."""
    A = _as_square(A)
    t = float(t)
    # Overflow is reported through the finiteness check below, so the
    # intermediate floating-point warning is just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        E = sla.expm(A * t)
    if not np.all(np.isfinite(E)):
        raise NumericalError(f"matrix exponential overflowed at t={t:.6g}")
    return E


def _cholesky(W) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite W = L L^T.

    The strict upper triangle of L is zero. Raises ``ValueError`` for a
    non-square, non-finite or visibly asymmetric W and
    :class:`NotPositiveDefiniteError` when the factorization breaks down.
    """
    W = _as_square(W, "W")
    scale = max(1.0, float(abs(W).max()))
    if abs(W - W.T).max() > 1e-10 * scale:
        raise ValueError("W must be symmetric")
    L, info = dpotrf(W, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky failed: leading minor of order {info} is not positive"
        )
    if info < 0:
        raise ValueError(f"Cholesky got an illegal argument {-info}")
    return L


def _cholesky_logdet(L: np.ndarray) -> float:
    """log det(L L^T) from the factor's diagonal."""
    return 2.0 * float(np.log(L.diagonal()).sum())


def _cholesky_trace_inv(L: np.ndarray) -> float:
    """tr((L L^T)^-1) = ||L^-1||_F^2 from one triangular inverse."""
    L_inv, info = dtrtri(L, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"Cholesky factor is singular at diagonal entry {info}"
        )
    return float(np.vdot(L_inv, L_inv))


def spd_inverse_and_logdet(W):
    """Invert a symmetric positive definite matrix and get its log-determinant.

    Returns ``(W_inv, logdet)`` computed from one Cholesky factorization,
    which is both cheaper and far better conditioned than ``det``.
    Failure to factor raises :class:`NotPositiveDefiniteError`.
    """
    L = _cholesky(W)
    W_inv = sla.cho_solve((L, True), np.eye(L.shape[0]), check_finite=False)
    return symmetrize(W_inv), _cholesky_logdet(L)
