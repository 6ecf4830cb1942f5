"""Generator network model and its reduced state-space form.

The model is the classical linearized swing dynamics of ``N`` synchronous
generators coupled through a susceptance Laplacian ``L``:

    M theta'' + D theta' + L theta = u

with inertia ``M`` and damping ``D`` diagonal and positive. The Laplacian
has a structural zero eigenvalue along the all-ones vector (uniform angle
shifts are unobservable), so the 2N-dimensional state space is projected
onto the complement of that average mode, giving a stable system of
dimension 2N - 1 whose controllability Gramian exists.

Angles are absolute rotor angles at the equilibrium, voltages are q-axis
magnitudes, both per-unit; fast electromagnetic dynamics are not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ModelError, StabilityError
from .linalg import RealSchur, _real_schur

__all__ = [
    "EdgeId",
    "ReducedAdmittanceData",
    "GeneratorNetwork",
    "ReducedSystem",
    "edge_laplacian",
    "laplacian_from_admittance",
    "build_projection",
    "reduced_pair",
    "build_reduced_system",
    "recover_modified_admittance",
]

# Absolute tolerances for Laplacian structure checks. The row-sum budget is
# looser than the symmetry budget because published network data is often
# printed with few decimals and rebalanced diagonals.
_SYM_TOL = 1e-12
_ROWSUM_TOL = 1e-10
_OFFDIAG_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True, order=True)
class EdgeId:
    """Canonical undirected edge between generators ``i`` and ``j``.

    Indices are 1-based and stored with ``i > j`` so each unordered pair
    has exactly one representation. Ordering (and therefore every
    tie-break in rankings) is lexicographic in ``(j, i)``.
    """

    j: int
    i: int

    def __init__(self, i: int, j: int):
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise ValueError(f"edge indices must be integers, got ({i!r}, {j!r})")
        if not 1 <= j < i:
            raise ValueError(f"edge requires 1 <= j < i, got (i={i}, j={j})")
        object.__setattr__(self, "i", int(i))
        object.__setattr__(self, "j", int(j))

    @classmethod
    def canonical(cls, a: int, b: int) -> "EdgeId":
        """Build the canonical edge for an unordered pair ``{a, b}``."""
        if a == b:
            raise ValueError(f"self-loop ({a}, {b}) is not an edge")
        return cls(max(a, b), min(a, b))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def edge_laplacian(edge: EdgeId, n: int) -> np.ndarray:
    """Elementary Laplacian of a single unit-weight edge.

    Returns the rank-one matrix (e_j - e_i)(e_j - e_i)^T, which is the
    derivative of a weighted Laplacian with respect to that edge weight.
    """
    if edge.i > n:
        raise ValueError(f"edge {edge} out of range for n={n}")
    V = np.zeros((n, n))
    a, b = edge.i - 1, edge.j - 1
    V[a, a] = V[b, b] = 1.0
    V[a, b] = V[b, a] = -1.0
    return V


@dataclass(frozen=True)
class ReducedAdmittanceData:
    """Kron-reduced complex admittance with equilibrium voltages and angles."""

    Y: np.ndarray
    voltage: np.ndarray
    angle: np.ndarray

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=complex)
        E = np.asarray(self.voltage, dtype=float)
        th = np.asarray(self.angle, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
            raise ModelError(f"admittance matrix must be square, got {Y.shape}")
        n = Y.shape[0]
        if E.shape != (n,) or th.shape != (n,):
            raise ModelError(
                f"voltage/angle lengths {E.shape}/{th.shape} inconsistent with N={n}"
            )
        if np.max(np.abs(Y - Y.T)) > 1e-12 * max(1.0, float(np.max(np.abs(Y)))):
            raise ModelError("admittance matrix must be symmetric")
        if np.any(E <= 0):
            raise ModelError("voltages must be positive")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "voltage", E)
        object.__setattr__(self, "angle", th)

    @property
    def N(self) -> int:
        return self.Y.shape[0]


@dataclass(frozen=True)
class GeneratorNetwork:
    """Inertias, dampings and susceptance Laplacian of ``N`` generators.

    Instances validate on construction: asymmetric, indefinite, or
    positively-coupled Laplacians and non-positive M or D raise
    :class:`ModelError` immediately rather than producing garbage
    Gramians later.
    """

    M: np.ndarray
    D: np.ndarray
    L: np.ndarray
    name: str = ""
    admittance: ReducedAdmittanceData | None = field(default=None, repr=False)

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        D = np.asarray(self.D, dtype=float)
        L = np.asarray(self.L, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "L", L)
        self.validate()

    @property
    def N(self) -> int:
        return self.M.shape[0]

    def validate(self) -> None:
        M, D, L = self.M, self.D, self.L
        if M.ndim != 1 or M.shape[0] < 2:
            raise ModelError(f"need at least 2 generators, got M shape {M.shape}")
        n = M.shape[0]
        if D.shape != (n,):
            raise ModelError(f"damping length {D.shape} inconsistent with N={n}")
        if L.shape != (n, n):
            raise ModelError(f"Laplacian shape {L.shape} inconsistent with N={n}")
        for arr, label in ((M, "inertia"), (D, "damping"), (L, "Laplacian")):
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{label} contains non-finite entries")
        if np.any(M <= 0):
            raise ModelError(f"inertias must be positive, got {M.tolist()}")
        if np.any(D <= 0):
            raise ModelError(f"dampings must be positive, got {D.tolist()}")
        scale = max(1.0, float(np.max(np.abs(L))))
        asym = np.abs(L - L.T)
        if np.max(asym) > _SYM_TOL * scale:
            r, c = np.unravel_index(int(np.argmax(asym)), L.shape)
            raise ModelError(
                f"Laplacian asymmetric at ({r + 1},{c + 1}): "
                f"{L[r, c]!r} vs {L[c, r]!r}"
            )
        rowsum = np.abs(L.sum(axis=1))
        if np.max(rowsum) > _ROWSUM_TOL:
            r = int(np.argmax(rowsum))
            raise ModelError(f"Laplacian row {r + 1} sums to {L[r].sum()!r}, not 0")
        off = L - np.diag(np.diag(L))
        if np.max(off) > _OFFDIAG_TOL:
            r, c = np.unravel_index(int(np.argmax(off)), L.shape)
            raise ModelError(
                f"positive off-diagonal l[{r + 1},{c + 1}] = {L[r, c]!r} "
                "(couplings must enter as negative entries)"
            )
        if np.min(np.linalg.eigvalsh(0.5 * (L + L.T))) < -_PSD_TOL:
            raise ModelError("Laplacian is not positive semidefinite")

    def edge_weight(self, edge: EdgeId) -> float:
        """Coupling strength g = -l_ji read from the lower triangle."""
        if edge.i > self.N:
            raise ValueError(f"edge {edge} out of range for N={self.N}")
        return float(-self.L[edge.i - 1, edge.j - 1])

    def with_laplacian(self, L: np.ndarray) -> "GeneratorNetwork":
        """Copy of this network with a replacement Laplacian (revalidated)."""
        return replace(self, L=np.asarray(L, dtype=float))


@dataclass(frozen=True)
class ReducedSystem:
    """Stable state-space pair after eliminating the average angle mode.

    ``A`` is (2N-1)x(2N-1), ``B`` is (2N-1)xN; ``T = blockdiag(U, I_N)``
    maps reduced coordinates back to (angles, frequencies). The source
    network is kept so downstream analyses can reach M, D, L.

    ``schur`` holds A's real Schur factor A = Z T Z^T, computed once on
    construction: the Hurwitz test, both Gramians and the edge-centrality
    adjoint all read it. ``A`` and ``B`` are private read-only copies, so
    the factor, and the Gramian that :func:`~powergram.gramian_infinite`
    keeps here once solved, cannot go stale.
    """

    A: np.ndarray
    B: np.ndarray
    T: np.ndarray
    U: np.ndarray
    network: GeneratorNetwork
    schur: RealSchur = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("A", "B"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "schur", _real_schur(self.A))

    @property
    def order(self) -> int:
        return self.A.shape[0]


def build_projection(N: int):
    """Deterministic basis of the all-ones complement, plus the state projection.

    ``U`` holds columns 2..N of the Householder reflector sending
    1/sqrt(N) to the first coordinate axis, so U^T U = I, U^T 1 = 0 and
    U U^T = I - (1/N) 1 1^T hold to machine precision and the
    construction is reproducible across platforms (no eigen-solver
    ordering involved).
    """
    if N < 2:
        raise ValueError(f"need at least 2 generators, got N={N}")
    w = np.full(N, 1.0 / math.sqrt(N))
    v = w.copy()
    v[0] -= 1.0
    H = np.eye(N) - (2.0 / (v @ v)) * np.outer(v, v)
    U = H[:, 1:].copy()
    T = np.zeros((2 * N, 2 * N - 1))
    T[:N, : N - 1] = U
    T[N:, N - 1 :] = np.eye(N)
    return U, T


def reduced_pair(M: np.ndarray, D: np.ndarray, L: np.ndarray, U: np.ndarray):
    """State and input matrices in reduced coordinates, no stability check.

    Equals T^T [[0, I],[-M^-1 L, -M^-1 D]] T and T^T [[0],[M^-1]] with
    the zero blocks dropped analytically:

        A = [[0, U^T], [-M^-1 L U, -M^-1 D]],   B = [[0], [M^-1]].

    Exposed separately from :func:`build_reduced_system` because the
    construction is affine in L and callers exploit that for unstable or
    intermediate Laplacians (e.g. L = 0) where the checked builder would
    refuse.
    """
    N = M.shape[0]
    A = np.zeros((2 * N - 1, 2 * N - 1))
    A[: N - 1, N - 1 :] = U.T
    A[N - 1 :, : N - 1] = -(L @ U) / M[:, None]
    A[N - 1 :, N - 1 :] = -np.diag(D / M)
    B = np.zeros((2 * N - 1, N))
    B[N - 1 :, :] = np.diag(1.0 / M)
    return A, B


def build_reduced_system(net: GeneratorNetwork) -> ReducedSystem:
    """Project the swing dynamics onto the average-free subspace.

    The full 2N-state system always carries a marginal zero mode from
    L1 = 0; after projection the remaining spectrum must be strictly in
    the open left half-plane, otherwise :class:`StabilityError` is
    raised (non-positive damping or a disconnected Laplacian).
    """
    U, T = build_projection(net.N)
    A, B = reduced_pair(net.M, net.D, net.L, U)
    sys = ReducedSystem(A=A, B=B, T=T, U=U, network=net)
    # A disconnected network leaves an exact zero eigenvalue that the
    # eigensolver may round to either side of the axis, so the Hurwitz
    # test needs a margin relative to the spectral radius.
    margin = 1e-12 * max(1.0, sys.schur.spectral_radius)
    if not sys.schur.abscissa < -margin:
        raise StabilityError(
            f"reduced state matrix is not Hurwitz (spectral abscissa "
            f"{sys.schur.abscissa:.6g}); check damping signs and Laplacian "
            "connectivity"
        )
    return sys


def _phase_shift(y: complex, row: int, col: int) -> float:
    # arctan of Re/Im, not atan2: the phase stays in (-pi/2, pi/2] by
    # construction and purely real admittance maps to +-pi/2.
    if y.imag == 0.0:
        ratio = math.inf if y.real > 0 else -math.inf
    else:
        ratio = y.real / y.imag
    return -float(np.sign(row - col)) * math.atan(ratio)


def laplacian_from_admittance(data: ReducedAdmittanceData) -> np.ndarray:
    """Susceptance Laplacian from Kron-reduced admittance and equilibrium.

    Off-diagonals are
    ``l_ji = -|y_ji| E_j E_i cos(theta_j - theta_i - phi_ji)`` with the
    sign-corrected phase shift
    ``phi_ji = -sign(j - i) arctan(Re y / Im y)``; diagonals are set so
    every row sums to zero. Equilibrium data that produces positive
    couplings (angle differences past the phase margin) raises
    :class:`ModelError` rather than returning a non-Laplacian.
    """
    n = data.N
    E, th, Y = data.voltage, data.angle, data.Y
    L = np.zeros((n, n))
    for r in range(n):
        for c in range(n):
            if r == c:
                continue
            y = complex(Y[r, c])
            if y == 0:
                continue
            phi = _phase_shift(y, r, c)
            L[r, c] = -abs(y) * E[r] * E[c] * math.cos(th[r] - th[c] - phi)
    scale = max(1.0, float(np.max(np.abs(L)))) if n else 1.0
    asym = np.abs(L - L.T)
    if np.max(asym) > _SYM_TOL * scale:
        r, c = np.unravel_index(int(np.argmax(asym)), L.shape)
        raise ModelError(
            f"admittance data yields asymmetric couplings at ({r + 1},{c + 1})"
        )
    if np.max(L - np.diag(np.diag(L))) > _OFFDIAG_TOL:
        r, c = np.unravel_index(
            int(np.argmax(L - np.diag(np.diag(L)))), L.shape
        )
        raise ModelError(
            f"equilibrium data produces positive coupling l[{r + 1},{c + 1}] = "
            f"{L[r, c]:.6g}; equilibrium is electrically inconsistent"
        )
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def recover_modified_admittance(
    data: ReducedAdmittanceData, edge: EdgeId, gamma_k: float, rho: float
) -> complex:
    """Complex admittance realizing a susceptance change on one edge.

    Given the modification ``gamma_k`` of coupling g on ``edge`` and a
    free phase parameter ``rho = tan|phase|``, returns the admittance
    whose Laplacian off-diagonal equals ``l_ji - gamma_k``. The family is
    one-parameter: every ``rho`` realizes the same susceptance with a
    different conductance/susceptance split.
    """
    if rho < 0:
        raise ValueError(f"phase parameter rho must be nonnegative, got {rho}")
    if edge.i > data.N:
        raise ValueError(f"edge {edge} out of range for N={data.N}")
    a, b = edge.i - 1, edge.j - 1
    L = laplacian_from_admittance(data)
    l_ji = L[a, b]
    # Role assignment (j, i) := (edge.i, edge.j) so sign(j - i) = +1;
    # the result is invariant under the swap because cos is even.
    theta_diff = data.angle[a] - data.angle[b]
    denom = (
        data.voltage[a]
        * data.voltage[b]
        * math.cos(theta_diff + math.atan(rho))
    )
    if abs(denom) <= 1e-9:
        raise ModelError(
            f"degenerate equilibrium on edge {edge}: modified-phase cosine "
            f"denominator {denom:.3e} is too close to zero"
        )
    root = math.sqrt(rho * rho + 1.0)
    re = (rho / root) * (gamma_k - l_ji) / denom
    im = (1.0 / root) * (gamma_k - l_ji) / denom
    return complex(re, im)
