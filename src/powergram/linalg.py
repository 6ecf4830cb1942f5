"""Dense linear-algebra kernel.

Thin, contract-checking wrappers around the LAPACK-backed routines in
:mod:`scipy.linalg`. Everything downstream (Gramians, centrality,
optimization) goes through these functions so that precondition checks
and failure mapping live in exactly one place.

The Lyapunov solver is Bartels-Stewart (CACM 15(9), 1972): one real
Schur factorization A = Z T Z^T (``dgees``), kept as a :class:`RealSchur`,
gives any number of solves, each a triangular Sylvester equation in T
(``dtrsyl``). Each solve first checks its own precondition, that A is
Hurwitz, on the eigenvalues read off T's diagonal. The same factor
solves the adjoint equation A^T P + P A + G = 0 as
T^T Y + Y T = -Z^T G Z, so a reduced system's
Gramians and its edge-centrality adjoint all share one factorization.
The SPD metrics read log det W and tr(W^-1) off one Cholesky factor
W = L L^T without forming W^-1.

All matrices are plain ``numpy.ndarray`` in float64; none of the sizes
involved here justify anything fancier.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dpotrf, dtrsyl, dtrtri

from .errors import NotPositiveDefiniteError, NumericalError, StabilityError

__all__ = [
    "RealSchur",
    "solve_lyapunov",
    "matrix_exponential",
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


def _no_sort(wr, wi) -> int:
    # dgees takes an eigenvalue selection callback even when it does not sort.
    return 0


class RealSchur(NamedTuple):
    """Real Schur factorization A = Z T Z^T of a square real matrix.

    ``T`` is quasi-upper-triangular and ``Z`` orthogonal; ``wr`` and
    ``wi`` are the real and imaginary parts of A's eigenvalues, read off
    T's diagonal blocks. A named tuple rather than a frozen dataclass,
    because the optimizer's objective builds one per evaluation and the
    tuple is several times cheaper to construct.
    """

    T: np.ndarray
    Z: np.ndarray
    wr: np.ndarray
    wi: np.ndarray

    @property
    def abscissa(self) -> float:
        """Largest real part over the spectrum; negative iff A is Hurwitz."""
        return float(self.wr.max())


def _real_schur(A) -> RealSchur:
    """One ``dgees`` call on a square, finite ``A``.

    ``lwork = 3n`` is ``dgees``'s documented minimum, which spares the
    workspace query.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    T, _, wr, wi, Z, _, info = dgees(_no_sort, A, lwork=max(1, 3 * n))
    if info != 0:
        raise NumericalError(f"Schur factorization failed (dgees info {info})")
    return RealSchur(T, Z, wr, wi)


def _symmetric_rhs(Q, n: int, name: str = "Q") -> np.ndarray:
    """Symmetric part of a right-hand side that is square, finite, n x n
    and symmetric up to roundoff; ``ValueError`` otherwise."""
    Q = _as_square(Q, name)
    if Q.shape != (n, n):
        raise ValueError(f"shape mismatch: A {(n, n)} vs {name} {Q.shape}")
    scale = max(1.0, float(np.max(np.abs(Q))))
    if np.max(np.abs(Q - Q.T)) > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    return symmetrize(Q)


def _schur_lyapunov(
    S: RealSchur, Q: np.ndarray, adjoint: bool = False
) -> np.ndarray:
    """Solve ``A X + X A^T + Q = 0`` on A's factor if A is Hurwitz, else raise.

    With ``adjoint`` it solves ``A^T X + X A + Q = 0`` instead. ``Q`` must
    already be square, finite and symmetric. ``dtrsyl`` solves
    T Y + Y T^T = -Z^T Q Z (or T^T Y + Y T = -Z^T Q Z), and X = Z Y Z^T.
    """
    alpha = S.abscissa
    if not alpha < 0.0:
        raise StabilityError(f"A is not Hurwitz (spectral abscissa {alpha:.6g})")
    T, Z = S.T, S.Z
    C = -(Z.T @ (Q @ Z))
    if adjoint:
        Y, scale, info = dtrsyl(T, T, C, trana="T")
    else:
        Y, scale, info = dtrsyl(T, T, C, tranb="T")
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
    S = _real_schur(A)
    return _schur_lyapunov(S, _symmetric_rhs(Q, S.T.shape[0]))


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


def _cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a lower Cholesky factor, from one triangular inverse."""
    L_inv, info = dtrtri(L, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"Cholesky factor is singular at diagonal entry {info}"
        )
    return L_inv


def _cholesky_trace_inv(L: np.ndarray) -> float:
    """tr((L L^T)^-1) = ||L^-1||_F^2 from one triangular inverse."""
    L_inv = _cholesky_inverse(L)
    return float(np.vdot(L_inv, L_inv))
