"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and as different as possible from
the library's production paths: the Lyapunov reference vectorizes the
equation through a Kronecker product instead of a Schur reduction, the
gradient references use central finite differences or one Lyapunov solve
per edge instead of the library's single adjoint solve, steering is
checked by fixed-step RK4 integration, and the modification matrix is
rebuilt from an incidence factorization.
"""

from __future__ import annotations

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
