"""Controllability Gramians, performance metrics, and energy analyses.

The three scalar metrics used throughout the package are defined on the
infinite-horizon controllability Gramian W of the reduced swing system:

    trace:         tr(W)
    logdet:        log det(W)
    neg-trace-inv: -tr(W^-1)

All three increase when the network becomes easier to steer, so edge
modifications are judged by how much they raise the chosen metric. The
finite-horizon Gramian supports the minimum-energy interpretation: the
energy needed to drive x0 to the origin in time t_f is x0^T W(t_f)^-1 x0.

Every solve here runs on the real Schur factor of A that a
:class:`~powergram.network.ReducedSystem` holds, so neither Gramian nor
the default horizon factors A again; a bare object with only ``A`` and
``B`` is factored on each call. The infinite-horizon Gramian of a
reduced system is solved once and then kept on the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .errors import NotPositiveDefiniteError, NumericalError
from .linalg import (
    RealSchur,
    _cholesky,
    _cholesky_logdet,
    _cholesky_trace_inv,
    _real_schur,
    _schur_lyapunov,
    _symmetric_rhs,
    matrix_exponential,
)
from .network import ReducedSystem

__all__ = [
    "GramianMetric",
    "GramianResult",
    "gramian_infinite",
    "gramian_finite",
    "metric_value",
    "default_horizon",
    "minimum_energy_cost",
    "minimum_energy_input",
    "sample_energy_costs",
    "damping_report",
    "slowest_oscillatory_mode",
]


class GramianMetric(Enum):
    """Which scalar functional of the Gramian to optimize or report."""

    TRACE = "trace"
    LOG_DET = "logdet"
    NEG_TRACE_INV = "neg-trace-inv"

    @classmethod
    def parse(cls, text: str) -> "GramianMetric":
        for member in cls:
            if member.value == text:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown metric {text!r} (expected one of: {valid})")


def metric_value(W: np.ndarray, kind: GramianMetric) -> float:
    """Evaluate one controllability metric on a symmetric Gramian.

    Trace accepts any symmetric matrix; the other two require positive
    definiteness and raise :class:`NotPositiveDefiniteError` otherwise.
    Both are read off one Cholesky factor W = L L^T: log det W is twice
    the sum of log diag(L), and tr(W^-1) = ||L^-1||_F^2.
    """
    W = np.asarray(W, dtype=float)
    if kind is GramianMetric.TRACE:
        return float(np.trace(W))
    L = _cholesky(W)
    if kind is GramianMetric.LOG_DET:
        return _cholesky_logdet(L)
    return -_cholesky_trace_inv(L)


def _all_metric_values(W: np.ndarray):
    values = {GramianMetric.TRACE: float(np.trace(W))}
    try:
        L = _cholesky(W)
    except NotPositiveDefiniteError:
        values[GramianMetric.LOG_DET] = math.nan
        values[GramianMetric.NEG_TRACE_INV] = math.nan
        return values, False
    values[GramianMetric.LOG_DET] = _cholesky_logdet(L)
    values[GramianMetric.NEG_TRACE_INV] = -_cholesky_trace_inv(L)
    return values, True


@dataclass(frozen=True)
class GramianResult:
    """A controllability Gramian with its horizon and metric values.

    ``controllable`` is False when the Cholesky factorization of W
    failed, which flags an uncontrollable (or numerically singular) pair;
    the determinant-based metrics are NaN in that case instead of
    raising, so reports can still be produced.
    """

    W: np.ndarray
    horizon: float
    metric_values: dict
    controllable: bool

    def metric(self, kind: GramianMetric) -> float:
        return self.metric_values[kind]


def _schur_of(sys) -> RealSchur:
    """A's Schur factor: the one a reduced system holds, else a fresh one."""
    if isinstance(sys, ReducedSystem):
        return sys.schur
    return _real_schur(sys.A)


def gramian_infinite(sys: ReducedSystem) -> GramianResult:
    """Infinite-horizon controllability Gramian of the reduced system.

    Solves A W + W A^T + B B^T = 0; requires Hurwitz A (guaranteed for
    systems built through the checked constructor). A reduced system
    keeps its result, so later calls return the same object, with a
    read-only ``W``.
    """
    memo = sys._memo if isinstance(sys, ReducedSystem) else {}
    if "gramian" not in memo:
        BBt = _symmetric_rhs(sys.B @ sys.B.T, sys.A.shape[0])
        W = _schur_lyapunov(_schur_of(sys), BBt)
        W.flags.writeable = False
        values, controllable = _all_metric_values(W)
        memo["gramian"] = GramianResult(
            W=W, horizon=math.inf, metric_values=values, controllable=controllable
        )
    return memo["gramian"]


def gramian_finite(sys: ReducedSystem, t_f: float) -> GramianResult:
    """Finite-horizon controllability Gramian over [0, t_f].

    Obtained from the Lyapunov equation with the horizon-corrected
    right-hand side A W + W A^T + Q = 0,
    Q = B B^T - e^{A t_f} B B^T e^{A^T t_f}, which equals the integral of
    e^{A t} B B^T e^{A^T t} over [0, t_f]. The result is cross-checked
    against the infinite-horizon Gramian: W(t_f) must be dominated by
    W(inf), otherwise the solve is declared inconsistent. For a reduced
    system both solves run on its one Schur factor of A, and W(inf) is
    the Gramian it keeps.
    """
    t_f = float(t_f)
    if not t_f > 0:
        raise ValueError(f"horizon must be positive, got {t_f}")
    if math.isinf(t_f):
        return gramian_infinite(sys)
    BBt = sys.B @ sys.B.T
    E = matrix_exponential(sys.A, t_f)
    Q = _symmetric_rhs(BBt - E @ BBt @ E.T, sys.A.shape[0])
    W = _schur_lyapunov(_schur_of(sys), Q)
    W_inf = gramian_infinite(sys).W
    gap = float(np.min(np.linalg.eigvalsh(W_inf - W)))
    if gap < -1e-9:
        raise NumericalError(
            f"finite-horizon Gramian exceeds the infinite-horizon one "
            f"(ordering violated by {-gap:.3e}); Lyapunov solve inconsistent"
        )
    values, controllable = _all_metric_values(W)
    return GramianResult(
        W=W, horizon=t_f, metric_values=values, controllable=controllable
    )


def default_horizon(sys: ReducedSystem) -> float:
    """Steering horizon used by the energy experiments: -1/alpha(A)."""
    return -1.0 / _schur_of(sys).abscissa


def _gramian_cholesky(sys: ReducedSystem, t_f: float):
    W = gramian_finite(sys, t_f).W
    try:
        return sla.cho_factor(W, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Gramian at horizon {t_f:.6g} is not positive definite: {exc}"
        ) from exc


def minimum_energy_cost(sys: ReducedSystem, x0, t_f: float) -> float:
    """Energy of the cheapest input steering x0 to the origin in time t_f.

    Equals x0^T W(t_f)^-1 x0; pass ``math.inf`` for the best achievable
    over all horizons. Averaged over standard-normal x0 this is
    tr(W(t_f)^-1), which is (minus) one of the three metrics.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.order,):
        raise ValueError(f"x0 must have shape ({sys.order},), got {x0.shape}")
    cho = _gramian_cholesky(sys, t_f)
    return float(x0 @ sla.cho_solve(cho, x0, check_finite=False))


def minimum_energy_input(sys: ReducedSystem, x0, t_f: float, t) -> np.ndarray:
    """Minimum-energy open-loop input at time(s) ``t`` in [0, t_f].

    u(t) = -B^T e^{A^T (t_f - t)} W(t_f)^-1 e^{A t_f} x0. Scalar ``t``
    yields shape (N,); an array of times yields one row per time.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.order,):
        raise ValueError(f"x0 must have shape ({sys.order},), got {x0.shape}")
    t_f = float(t_f)
    if not (t_f > 0 and math.isfinite(t_f)):
        raise ValueError(f"steering horizon must be finite positive, got {t_f}")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < -1e-12) or np.any(times > t_f + 1e-12):
        raise ValueError(f"times must lie in [0, {t_f:.6g}]")
    cho = _gramian_cholesky(sys, t_f)
    z = sla.cho_solve(cho, matrix_exponential(sys.A, t_f) @ x0, check_finite=False)
    out = np.empty((times.shape[0], sys.B.shape[1]))
    for k, tk in enumerate(times):
        out[k] = -sys.B.T @ (matrix_exponential(sys.A.T, t_f - tk) @ z)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def sample_energy_costs(
    sys: ReducedSystem, t_f: float, n_samples: int, seed: int = 0
) -> np.ndarray:
    """Minimum steering energies for standard-normal initial states.

    Vectorized over samples; reproducible from the seed. The sample mean
    estimates tr(W(t_f)^-1).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    cho = _gramian_cholesky(sys, t_f)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(n_samples), sys.order))
    return np.einsum("ij,ij->i", X, sla.cho_solve(cho, X.T, check_finite=False).T)


def damping_ratio(pole: complex) -> float:
    """Damping ratio of one pole, in percent: 100 (-Re p)/|p|."""
    mag = abs(pole)
    if mag == 0:
        raise ValueError("damping ratio undefined for a zero pole")
    return 100.0 * (-pole.real) / mag


def damping_report(A) -> list[tuple[complex, float]]:
    """Damping ratios of all nonzero poles of ``A``.

    Returns (pole, zeta-percent) pairs sorted slow-first: by |Im p|
    ascending, then by distance to the imaginary axis. Poles at the
    origin (marginal modes) are omitted.
    """
    A = np.asarray(A, dtype=float)
    ev = np.linalg.eigvals(A)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ev))) if ev.size else 1.0)
    poles = [complex(p) for p in ev if abs(p) > tol]
    poles.sort(key=lambda p: (abs(p.imag), abs(p.real), p.imag, p.real))
    return [(p, damping_ratio(p)) for p in poles]


def slowest_oscillatory_mode(report: list[tuple[complex, float]]):
    """The reported mode closest to the imaginary axis.

    Prefers oscillatory poles (nonzero imaginary part); falls back to
    real poles for fully overdamped systems. Returns a (pole, zeta) pair.
    """
    if not report:
        raise ValueError("empty damping report")
    oscillatory = [entry for entry in report if entry[0].imag > 0]
    pool = oscillatory if oscillatory else list(report)
    return min(pool, key=lambda e: (abs(e[0].real), abs(e[0].imag)))
