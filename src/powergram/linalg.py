"""Dense linear-algebra kernel.

Thin, contract-checking wrappers around the LAPACK-backed routines in
:mod:`scipy.linalg`. Everything downstream (Gramians, centrality,
optimization) goes through these functions so that precondition checks
and failure mapping live in exactly one place.

All matrices are plain ``numpy.ndarray`` in float64; none of the sizes
involved here justify anything fancier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
    if not np.all(np.isfinite(A)):
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


def _lyapunov_unchecked(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Bartels-Stewart via real Schur form; scipy solves A X + X A^H = Q,
    # so the right-hand side is negated here. Output symmetrized because
    # the triangular back-substitution loses symmetry at roundoff level.
    try:
        X = sla.solve_continuous_lyapunov(A, -Q)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Lyapunov solve failed: {exc}") from exc
    if not np.all(np.isfinite(X)):
        raise NumericalError("Lyapunov solve produced non-finite entries")
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
    alpha = spectral_abscissa(A)
    if not alpha < 0.0:
        raise StabilityError(f"A is not Hurwitz (spectral abscissa {alpha:.6g})")
    return _lyapunov_unchecked(A, symmetrize(Q))


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


def spd_inverse_and_logdet(W):
    """Invert a symmetric positive definite matrix and get its log-determinant.

    Returns ``(W_inv, logdet)`` computed from one Cholesky factorization,
    which is both cheaper and far better conditioned than ``det``.
    Failure to factor raises :class:`NotPositiveDefiniteError`.
    """
    W = _as_square(W, "W")
    scale = max(1.0, float(np.max(np.abs(W))))
    if np.max(np.abs(W - W.T)) > 1e-10 * scale:
        raise ValueError("W must be symmetric")
    try:
        c, low = sla.cho_factor(W, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky failed: {exc}") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    W_inv = sla.cho_solve((c, low), np.eye(W.shape[0]), check_finite=False)
    return symmetrize(W_inv), logdet
