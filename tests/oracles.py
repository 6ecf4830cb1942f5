"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and as different as possible from
the library's production paths: the Lyapunov reference vectorizes the
equation through a Kronecker product instead of a Schur reduction, the
gradient references use central finite differences or one Lyapunov solve
per edge instead of the library's single adjoint solve, steering is
checked by fixed-step RK4 integration, and the modification matrix is
rebuilt from an incidence factorization. The optimizer is checked
against a dense grid over its feasible set, against a derivative-free
Nelder-Mead search of a penalized objective, and its projection against
an enumeration of the active sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from powergram import (
    EdgeId,
    GeneratorNetwork,
    GramianMetric,
    ReducedSystem,
    build_reduced_system,
    edge_laplacian,
)
from powergram.modify import _ObjectiveContext


def kron_lyapunov_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Q = 0 by stacking columns (dense, O(n^6))."""
    n = A.shape[0]
    K = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    x = np.linalg.solve(K, -Q.flatten(order="F"))
    return x.reshape((n, n), order="F")


def fd_metric_gradient(
    net: GeneratorNetwork, edge: EdgeId, metric: GramianMetric, delta: float = 1e-5
) -> float:
    """Central finite difference of the metric w.r.t. one coupling weight."""
    return fd_all_metric_gradients(net, edge, delta)[metric]


def fd_all_metric_gradients(
    net: GeneratorNetwork, edge: EdgeId, delta: float = 1e-5
) -> dict:
    """Central finite differences of all three metrics along one edge weight.

    Subtracting endpoint metrics directly runs into a rounding floor:
    tr(W) can be 1e4 while the step changes it by 1e-6, so the quotient
    keeps only a few digits. Instead the Gramian difference
    S = W(g + delta) - W(g - delta) is computed as the solution of its
    own Lyapunov equation, obtained by subtracting the two endpoint
    equations: A+ S + S A+^T + (E W- + W- E^T) = 0 with E = A+ - A-.
    Each metric difference is then a well-scaled functional of S. This
    evaluates the same finite difference (not the analytic derivative)
    at full relative precision. The entries of A+ and A- are within a
    factor two of each other, so E is exact by the Sterbenz lemma.
    """
    V = edge_laplacian(edge, net.N)
    sys_p = build_reduced_system(net.with_laplacian(net.L + delta * V))
    sys_m = build_reduced_system(net.with_laplacian(net.L - delta * V))
    Wp = kron_lyapunov_solve(sys_p.A, sys_p.B @ sys_p.B.T)
    Wm = kron_lyapunov_solve(sys_m.A, sys_m.B @ sys_m.B.T)
    E = sys_p.A - sys_m.A
    S = kron_lyapunov_solve(sys_p.A, E @ Wm + Wm @ E.T)

    # logdet(Wp) - logdet(Wm) = logdet(I + Wm^-1 S); the congruence
    # R^-1 S R^-T with Wm = R R^T keeps the eigenproblem symmetric.
    R = np.linalg.cholesky(0.5 * (Wm + Wm.T))
    K = np.linalg.solve(R, np.linalg.solve(R, S).T).T
    d_logdet = float(np.sum(np.log1p(np.linalg.eigvalsh(0.5 * (K + K.T)))))

    # tr(Wm^-1) - tr(Wp^-1) = tr(Wm^-1 S Wp^-1), the exact difference of
    # the two inverse traces.
    d_neg_trace_inv = float(
        np.trace(np.linalg.solve(Wm, S) @ np.linalg.inv(Wp))
    )

    return {
        GramianMetric.TRACE: float(np.trace(S)) / (2.0 * delta),
        GramianMetric.LOG_DET: d_logdet / (2.0 * delta),
        GramianMetric.NEG_TRACE_INV: d_neg_trace_inv / (2.0 * delta),
    }


def per_edge_ecm_entry(
    sys: ReducedSystem, edge: EdgeId, metric: GramianMetric
) -> float:
    """ECM entry from its own Lyapunov solve: tr(G X), with X = dW/dg.

    X solves A X + X A^T + F W + W F^T = 0 for the direction F that one
    unit of coupling on ``edge`` adds to A, and G is I, W^-1 or W^-2 for
    trace, logdet and neg-trace-inv. This is the per-edge algorithm the
    library replaced by a single adjoint solve; it calls scipy directly.
    """
    N = sys.network.N
    W = sla.solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.T)
    e = np.zeros(N)
    e[edge.i - 1], e[edge.j - 1] = 1.0, -1.0
    F = np.zeros_like(sys.A)
    F[N - 1 :, : N - 1] = -np.outer(e / sys.network.M, e @ sys.U)
    X = sla.solve_continuous_lyapunov(sys.A, -(F @ W + W @ F.T))
    if metric is GramianMetric.TRACE:
        return float(np.trace(X))
    W_inv = np.linalg.inv(W)
    if metric is GramianMetric.LOG_DET:
        return float(np.trace(W_inv @ X))
    return float(np.trace(W_inv @ W_inv @ X))


def nearest_floored_point(x, lower, beta: float) -> np.ndarray:
    """Nearest point to x of {||gamma|| <= beta, gamma >= lower}, by enumeration.

    Tries every set H of components held at their floor, with the ball
    constraint inactive (gamma = x off H) or active (x scaled onto the
    sphere off H), keeps the candidates that are feasible to 1e-12 and
    returns the closest. Exponential in len(x); meant for s <= 6.
    """
    x = np.asarray(x, dtype=float)
    lower = np.asarray(lower, dtype=float)
    s = x.shape[0]
    best, best_dist = None, np.inf
    for held in itertools.product((False, True), repeat=s):
        held = np.array(held)
        gamma = np.where(held, lower, x)
        candidates = [gamma]
        rest = beta**2 - float(np.sum(lower[held] ** 2))
        free_sq = float(np.sum(x[~held] ** 2))
        if rest >= 0.0 and free_sq > 0.0:
            candidates.append(np.where(held, lower, x * np.sqrt(rest / free_sq)))
        for cand in candidates:
            feasible = (
                np.linalg.norm(cand) <= beta * (1.0 + 1e-12)
                and np.all(cand >= lower - 1e-12)
            )
            dist = float(np.linalg.norm(cand - x))
            if feasible and dist < best_dist:
                best, best_dist = cand, dist
    return best


def dense_gramian_eigenvalues(net: GeneratorNetwork, edge_set, gamma) -> np.ndarray:
    """Eigenvalues of the modified network's Gramian, from dense references.

    Independent of the library's optimizer path: the Laplacian comes
    from :func:`incidence_delta`, the Gramian from
    :func:`kron_lyapunov_solve`, and its spectrum from a symmetric
    eigendecomposition.
    """
    L = net.L + incidence_delta(edge_set, gamma, net.N)
    sys = build_reduced_system(net.with_laplacian(L))
    W = kron_lyapunov_solve(sys.A, sys.B @ sys.B.T)
    return np.linalg.eigvalsh(0.5 * (W + W.T))


def metric_from_eigenvalues(ev: np.ndarray, metric: GramianMetric) -> float:
    if metric is GramianMetric.TRACE:
        return float(np.sum(ev))
    if metric is GramianMetric.LOG_DET:
        return float(np.sum(np.log(ev)))
    return -float(np.sum(1.0 / ev))


def dense_metric(net: GeneratorNetwork, edge_set, gamma, metric: GramianMetric) -> float:
    """Metric of the modified network from :func:`dense_gramian_eigenvalues`."""
    return metric_from_eigenvalues(
        dense_gramian_eigenvalues(net, edge_set, gamma), metric
    )


def grid_maximum(
    net: GeneratorNetwork, edge_set, metric: GramianMetric, beta: float,
    lower, points: int = 41,
) -> float:
    """Best metric over a dense grid of the floored budget set, s <= 2.

    The grid covers [max(lower_k, -beta), beta] per edge with ``points``
    nodes, plus ``4 * points`` nodes on the sphere ||gamma|| = beta and
    the corners where a floor meets the sphere; infeasible nodes are
    dropped. Every node is scored with :func:`dense_metric`.
    """
    lower = np.asarray(lower, dtype=float)
    s = lower.shape[0]
    if s not in (1, 2):
        raise ValueError("the grid oracle covers s = 1 and s = 2 only")
    axes = [np.linspace(max(lo, -beta), beta, points) for lo in lower]
    nodes = [np.array(p) for p in itertools.product(*axes)]
    if s == 2:
        for theta in np.linspace(0.0, 2.0 * np.pi, 4 * points, endpoint=False):
            nodes.append(beta * np.array([np.cos(theta), np.sin(theta)]))
        for k in range(2):
            if abs(lower[k]) <= beta:
                other = np.sqrt(beta**2 - lower[k] ** 2)
                for sign in (-1.0, 1.0):
                    node = np.empty(2)
                    node[k], node[1 - k] = lower[k], sign * other
                    nodes.append(node)
    best = -np.inf
    for node in nodes:
        if np.linalg.norm(node) <= beta and np.all(node >= lower):
            best = max(best, dense_metric(net, edge_set, node, metric))
    return best


class DegenerateDirectionError(ValueError):
    """The direction part of a search vector eta is zero or not finite."""


# Score of an infeasible search vector in :class:`PenalizedObjective`.
PENALTY = 1e10


def parameterize(
    eta, beta: float, kind: str = "sin", chi: float = 1.0
) -> np.ndarray:
    """Map unconstrained eta = (nu, kappa) onto the budget ball.

    The sinusoidal form gamma = beta sin(pi kappa / 2) nu/||nu|| covers
    radii in [-beta, beta]; the logistic alternative uses
    1/(1 + e^{-chi kappa}) in place of the sine. Zero direction vectors
    are rejected (the radial scaling is undefined there).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.shape[0] < 2:
        raise ValueError(f"eta must be a vector (nu, kappa), got shape {eta.shape}")
    nu, kappa = eta[:-1], eta[-1]
    norm = float(np.linalg.norm(nu))
    if norm == 0.0 or not math.isfinite(norm):
        raise DegenerateDirectionError(
            "direction component of eta is zero or non-finite"
        )
    if kind == "sin":
        radius = beta * math.sin(0.5 * math.pi * kappa)
    elif kind == "sigmoid":
        try:
            radius = beta / (1.0 + math.exp(-chi * kappa))
        except OverflowError:  # chi * kappa << 0: the logistic limit is 0
            radius = 0.0
    else:
        raise ValueError(f"unknown parameterization {kind!r}")
    return (radius / norm) * nu


class PenalizedObjective:
    """Metric of the modified network at parameterize(eta), or -PENALTY.

    Total on its domain: a degenerate direction, a gamma below ``lower``
    (the coupling floor unless given) and a failed evaluation all score
    -PENALTY instead of raising, which lets a derivative-free search roam
    freely. The metric comes from the library's objective context.
    """

    def __init__(self, problem, lower=None):
        self.ctx = _ObjectiveContext(problem)
        self.beta = problem.beta
        self.lower = self.ctx.lower if lower is None else np.asarray(lower, float)

    def __call__(self, eta) -> float:
        try:
            gamma = parameterize(eta, self.beta)
        except DegenerateDirectionError:
            return -PENALTY
        if (gamma < self.lower).any():
            return -PENALTY
        point = self.ctx.evaluate(gamma)
        return -PENALTY if point is None else point.value


@dataclass(frozen=True)
class NelderMeadResult:
    eta: np.ndarray
    value: float
    iterations: int
    converged: bool


def nelder_mead_maximize(f, eta0, max_iter=None, f_tol=1e-10, x_tol=1e-10):
    """Derivative-free simplex maximization of a total function.

    Classic Nelder-Mead with reflection 1, expansion 2, contraction 0.5,
    shrink 0.5, started from the conventional simplex (each coordinate of
    eta0 nudged by 5 percent, or 0.00025 when zero). Converged when the
    vertex spread is below ``x_tol`` and the value spread is below
    ``f_tol * max(1, |f_best|)``. Stops unconverged when the vertex spread
    falls to 4 eps * max(1, max|x_best|), where no step can move the
    simplex any more, or at the cap of 400 iterations per dimension.
    """
    x0 = np.asarray(eta0, dtype=float).copy()
    if x0.ndim != 1:
        raise ValueError(f"eta0 must be a vector, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("eta0 contains non-finite entries")
    dim = x0.shape[0]
    if max_iter is None:
        max_iter = 400 * dim

    # Work on g = -f so the bookkeeping below is ordinary minimization.
    def g(x: np.ndarray) -> float:
        return -float(f(x))

    simplex = np.tile(x0, (dim + 1, 1))
    for k in range(dim):
        simplex[k + 1, k] = x0[k] * 1.05 if x0[k] != 0.0 else 0.00025
    values = np.array([g(v) for v in simplex])

    stall = 4.0 * np.finfo(float).eps
    iterations = 0
    converged = False
    while iterations < max_iter:
        order = values.argsort(kind="stable")
        simplex, values = simplex[order], values[order]
        f_spread = values[-1] - values[0]
        x_spread = abs(simplex[1:] - simplex[0]).max()
        if x_spread < x_tol and f_spread < f_tol * max(1.0, abs(values[0])):
            converged = True
            break
        if x_spread <= stall * max(1.0, abs(simplex[0]).max()):
            break
        iterations += 1

        centroid = simplex[:-1].sum(axis=0) / dim
        worst = simplex[-1]
        reflected = 2.0 * centroid - worst
        fr = g(reflected)
        if fr < values[0]:
            expanded = 3.0 * centroid - 2.0 * worst
            fe = g(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = 1.5 * centroid - 0.5 * worst
                fc = g(contracted)
                accept = fc <= fr
            else:
                contracted = 0.5 * centroid + 0.5 * worst
                fc = g(contracted)
                accept = fc < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [g(v) for v in simplex[1:]]

    best = int(np.argmin(values))
    return NelderMeadResult(
        eta=simplex[best].copy(),
        value=-float(values[best]),
        iterations=iterations,
        converged=converged,
    )


def rk4_steer(sys: ReducedSystem, x0: np.ndarray, t_f: float, u_grid: np.ndarray,
              steps: int) -> np.ndarray:
    """Integrate x' = A x + B u with classical RK4 on a fixed grid.

    ``u_grid`` must hold the input at the 2*steps + 1 half-step times.
    """
    h = t_f / steps
    A, B = sys.A, sys.B
    x = x0.astype(float).copy()
    for k in range(steps):
        u0, um, u1 = u_grid[2 * k], u_grid[2 * k + 1], u_grid[2 * k + 2]
        k1 = A @ x + B @ u0
        k2 = A @ (x + 0.5 * h * k1) + B @ um
        k3 = A @ (x + 0.5 * h * k2) + B @ um
        k4 = A @ (x + h * k3) + B @ u1
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def incidence_delta(edge_set, gamma, n_nodes: int) -> np.ndarray:
    """Modification matrix via the incidence factorization C diag(gamma) C^T."""
    edges = tuple(edge_set)
    C = np.zeros((n_nodes, len(edges)))
    for k, edge in enumerate(edges):
        C[edge.j - 1, k] = 1.0
        C[edge.i - 1, k] = -1.0
    return C @ np.diag(np.asarray(gamma, dtype=float)) @ C.T


def random_connected_network(rng: np.random.Generator, n: int) -> GeneratorNetwork:
    """Random stable generator network with a connected coupling graph.

    A random spanning tree guarantees connectivity; every other pair gets
    an edge with probability 1/2. Weights are O(1), inertias and dampings
    uniform in [0.01, 0.2].
    """
    G = np.zeros((n, n))
    for node in range(1, n):
        anchor = int(rng.integers(0, node))
        w = rng.uniform(0.5, 2.0)
        G[node, anchor] = G[anchor, node] = w
    for a in range(n):
        for b in range(a + 1, n):
            if G[a, b] == 0.0 and rng.random() < 0.5:
                w = rng.uniform(0.5, 2.0)
                G[a, b] = G[b, a] = w
    L = np.diag(G.sum(axis=1)) - G
    M = rng.uniform(0.01, 0.2, size=n)
    D = rng.uniform(0.01, 0.2, size=n)
    return GeneratorNetwork(M=M, D=D, L=L)


def random_hurwitz(rng: np.random.Generator, n: int, margin: float = 0.5) -> np.ndarray:
    """Random dense matrix shifted until its spectrum clears the axis."""
    A = rng.standard_normal((n, n))
    alpha = float(np.max(np.linalg.eigvals(A).real))
    return A - (alpha + margin) * np.eye(n)


@dataclass(frozen=True)
class _Stub:
    A: np.ndarray
    B: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def network(self):
        raise AttributeError("bare test system has no source network")


def bare_system(A, B) -> _Stub:
    """Minimal stand-in for a reduced system when only (A, B) matter."""
    return _Stub(A=np.asarray(A, dtype=float), B=np.asarray(B, dtype=float))
