"""Edge centrality: Gramian-gradient ranking and the static NNEC baseline.

The edge centrality matrix collects, for every candidate edge, the
first-order sensitivity of a controllability metric to that edge's
coupling strength. If W is the infinite-horizon Gramian and F the
direction the state matrix moves when the edge strengthens, the
Gramian's derivative X solves A X + X A^T + F W + W F^T = 0, and the
metric gradient is tr(G X) with G = I (trace), W^-1 (logdet) or W^-2
(neg-trace-inv). The adjoint identity tr(G X) = 2 tr(P F W), with
A^T P + P A + G = 0, serves every edge from one solve, which runs on the
real Schur factor the reduced system already holds for its Gramian
(so building the ECM factors A no further time): F is
-M^-1 (e_a - e_b)(e_a - e_b)^T U in its frequency-by-angle block, so
with the N x N matrix Z = U (W P)[angle, freq] diag(M)^-1 every entry is

    upsilon_ab = -2 (Z_aa - Z_ab - Z_ba + Z_bb).

Edges are ranked by |gradient| descending; the top-s edges form the
modification set handed to the optimizer. The nearest-neighbor edge
centrality (NNEC) is the purely topological baseline: it sees only the
coupling weights, never the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gramian import GramianMetric, gramian_infinite
from .linalg import (
    _cholesky,
    _cholesky_inverse,
    _schur_lyapunov,
    _symmetric_rhs,
)
from .network import (
    EdgeId, GeneratorNetwork, ReducedSystem, _couplings, edge_laplacian,
)

__all__ = [
    "CandidateKind",
    "CandidateEdgeSet",
    "EdgeCentralityReport",
    "edge_direction_matrix",
    "ecm_entry",
    "build_ecm",
    "select_edge_set",
    "nnec_report",
]


class CandidateKind(Enum):
    ALL_PAIRS = "all-pairs"
    LAPLACIAN_SUPPORT = "laplacian"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class CandidateEdgeSet:
    """Ordered, duplicate-free set of edges eligible for modification."""

    edges: tuple[EdgeId, ...]
    provenance: CandidateKind

    def __post_init__(self):
        edges = tuple(self.edges)
        if len(set(edges)) != len(edges):
            raise ValueError("candidate edge set contains duplicates")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def all_pairs(cls, N: int) -> "CandidateEdgeSet":
        """Every unordered generator pair, in (j, i) lexicographic order."""
        if N < 2:
            raise ValueError(f"need at least 2 generators, got N={N}")
        edges = tuple(
            EdgeId(i, j) for j in range(1, N) for i in range(j + 1, N + 1)
        )
        return cls(edges=edges, provenance=CandidateKind.ALL_PAIRS)

    @classmethod
    def laplacian_support(cls, net: GeneratorNetwork) -> "CandidateEdgeSet":
        """Edges that exist: coupling above ``network.SUPPORT_THRESHOLD``,
        the same lines that decide whether the network is stable.

        This is the default candidate set, since creating brand-new
        transmission lines is not a feasible modification.
        """
        G = _couplings(net.L)
        edges = tuple(
            edge
            for edge in cls.all_pairs(net.N).edges
            if G[edge.i - 1, edge.j - 1] > 0.0
        )
        return cls(edges=edges, provenance=CandidateKind.LAPLACIAN_SUPPORT)

    @classmethod
    def explicit(cls, edges) -> "CandidateEdgeSet":
        return cls(edges=tuple(edges), provenance=CandidateKind.EXPLICIT)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, edge: EdgeId) -> bool:
        return edge in self.edges


@dataclass(frozen=True)
class EdgeCentralityReport:
    """Centrality values, impacts, and the induced edge ranking.

    ``upsilon`` and ``impact`` are dense N x N, mirrored across the
    diagonal for display, zero outside the candidate set; ``tau`` holds
    the impacts in ranking order (non-increasing).
    """

    metric: GramianMetric
    candidate: CandidateEdgeSet
    upsilon: np.ndarray
    impact: np.ndarray
    ranking: tuple[EdgeId, ...]
    tau: np.ndarray

    def value(self, edge: EdgeId) -> float:
        return float(self.upsilon[edge.i - 1, edge.j - 1])


def edge_direction_matrix(
    sys: ReducedSystem, net: GeneratorNetwork, edge: EdgeId
) -> np.ndarray:
    """Derivative of the reduced state matrix w.r.t. one coupling weight.

    Because A depends affinely on L, this equals
    A(L + V_edge) - A(L) exactly, where V_edge is the elementary edge
    Laplacian; in block form [[0, 0], [-M^-1 V U, 0]].
    """
    N = net.N
    V = edge_laplacian(edge, N)
    F = np.zeros_like(sys.A)
    F[N - 1 :, : N - 1] = -(V @ sys.U) / net.M[:, None]
    return F


def _gradient_weights(
    W: np.ndarray, metric: GramianMetric, L: np.ndarray | None = None
) -> np.ndarray:
    """Adjoint right-hand side G such that the metric gradient is tr(G X).

    W^-1 = L^-T L^-1 comes from W's Cholesky factor L, factored here
    unless the caller already holds it; a W that is not symmetric positive
    definite raises as in :func:`metric_value`.
    """
    if metric is GramianMetric.TRACE:
        return np.eye(W.shape[0])
    L_inv = _cholesky_inverse(_cholesky(W) if L is None else L)
    W_inv = L_inv.T @ L_inv
    if metric is GramianMetric.LOG_DET:
        return W_inv
    return W_inv @ W_inv  # the adjoint solve symmetrizes the roundoff away


def _ecm_matrix(
    sys: ReducedSystem, W: np.ndarray, metric: GramianMetric, chol=None
):
    """All-pairs gradient matrix from one adjoint solve (module docstring);
    ``chol`` is W's lower Cholesky factor if the caller holds it."""
    N = sys.network.N
    G = _symmetric_rhs(_gradient_weights(W, metric, chol), sys.order, "G")
    P = _schur_lyapunov(sys.schur, G, adjoint=True)
    Z = sys.U @ (W @ P)[: N - 1, N - 1 :] / sys.network.M
    d = np.diag(Z)
    return -2.0 * (d[:, None] + d[None, :] - Z - Z.T)


def ecm_entry(
    sys: ReducedSystem, W: np.ndarray, edge: EdgeId, metric: GramianMetric
) -> float:
    """Sensitivity of one metric to one edge's coupling strength.

    ``W`` must be the infinite-horizon Gramian of ``sys`` (that pairing
    is what makes the adjoint shortcut equal the true gradient).
    """
    full = _ecm_matrix(sys, np.asarray(W, dtype=float), metric)
    return float(full[edge.i - 1, edge.j - 1])


def _ranked(edges, impact_of) -> tuple[tuple[EdgeId, ...], np.ndarray]:
    # Impact ties are broken lexicographically in (j, i) so rankings are
    # reproducible across platforms.
    ranking = tuple(
        sorted(edges, key=lambda e: (-impact_of(e), e.j, e.i))
    )
    tau = np.array([impact_of(e) for e in ranking])
    return ranking, tau


def build_ecm(
    sys: ReducedSystem,
    net: GeneratorNetwork,
    candidate: CandidateEdgeSet,
    metric: GramianMetric,
) -> EdgeCentralityReport:
    """Centrality values for every candidate edge, plus the ranking.

    One adjoint Lyapunov solve, whatever the number of candidate edges,
    on top of the system's Gramian (solved here unless the system already
    holds it); both run on the system's one Schur factor of A.
    """
    if len(candidate) == 0:
        raise ValueError("candidate edge set is empty")
    for edge in candidate:
        if edge.i > net.N:
            raise ValueError(f"candidate edge {edge} out of range for N={net.N}")
    gramian = gramian_infinite(sys)
    full = _ecm_matrix(sys, gramian.W, metric, gramian.chol)
    upsilon = np.zeros_like(full)
    for edge in candidate:
        a, b = edge.i - 1, edge.j - 1
        upsilon[a, b] = upsilon[b, a] = full[a, b]
    impact = np.abs(upsilon)
    ranking, tau = _ranked(
        candidate.edges, lambda e: impact[e.i - 1, e.j - 1]
    )
    return EdgeCentralityReport(
        metric=metric,
        candidate=candidate,
        upsilon=upsilon,
        impact=impact,
        ranking=ranking,
        tau=tau,
    )


def select_edge_set(report: EdgeCentralityReport, s: int) -> tuple[EdgeId, ...]:
    """The s most impactful edges of a centrality report, best first."""
    if not 1 <= s <= len(report.ranking):
        raise ValueError(
            f"selection size s={s} out of range 1..{len(report.ranking)}"
        )
    return report.ranking[:s]


def nnec_report(net: GeneratorNetwork):
    """Nearest-neighbor edge centrality: the topology-only baseline.

    lambda_ji = (rho_j + rho_i - 2 g_ji) / (|rho_j - rho_i| + 1) * g_ji
    with rho_k the total coupling strength at node k. Returns the dense
    matrix and the descending ranking over the Laplacian support. Depends
    only on L, never on M or D.
    """
    N = net.N
    G = _couplings(net.L)
    rho = G.sum(axis=1)
    lam = np.zeros((N, N))
    support = CandidateEdgeSet.laplacian_support(net)
    for edge in support:
        a, b = edge.i - 1, edge.j - 1
        g = G[a, b]
        value = (rho[a] + rho[b] - 2.0 * g) / (abs(rho[a] - rho[b]) + 1.0) * g
        lam[a, b] = value
        lam[b, a] = value
    ranking, _ = _ranked(support.edges, lambda e: lam[e.i - 1, e.j - 1])
    return lam, ranking
