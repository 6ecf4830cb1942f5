"""Budgeted edge modification via projected gradient ascent.

The design problem: pick susceptance changes gamma on a small set of
edges, with Euclidean budget ||gamma|| <= beta, to maximize a
controllability metric of the modified network. Each line keeps a floor
on its coupling: gamma_k >= -(1 - eps) g_k with eps = COUPLING_FLOOR =
1e-3, so a line can be weakened to a thousandth of its coupling but never
cut. A line at its floor keeps coupling eps g, so it stays present
(eps g > network.SUPPORT_THRESHOLD) exactly when g > 1e-9. For such
lines every point of this feasible set leaves the coupling graph as
connected as it was, so every modified system is stable and the metric
is finite and smooth on the whole set. A budget past a line's cut
therefore ends at that line's floor instead of at a disconnected network
whose log det W is unbounded.

The search is spectral projected gradient ascent (Birgin, Martinez and
Raydan, SIAM J. Optim. 10(4), 2000): Barzilai-Borwein steps with Armijo
backtracking along the projection arc, where the projection onto the
ball-and-box set is exact. The gradient is the edge centrality of the
modified network, dh/dgamma_k = 2 tr(P F_k W), which costs one adjoint
Lyapunov solve on the Schur factor the value evaluation already made.
Restarts run from a fixed schedule of initial directions (uniform, the
centrality gradient both ways, and seeded random unit vectors), each
started at the projection of beta/sqrt(2) times the direction; a start
equal to an earlier one is skipped.

The winner is re-checked by one feasibility predicate, which builds the
modified network once; the result carries that validated system.
gamma = 0 is always feasible, so the optimizer never reports a
regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .centrality import CandidateEdgeSet, _gradient_weights, edge_direction_matrix
from .errors import CombinationCapError, NumericalError, PowergramError
from .gramian import GramianMetric, _factored_metric, gramian_infinite
from .linalg import RealSchur, _real_schur, _schur_lyapunov, _symmetric_rhs
from .network import (
    EdgeId,
    GeneratorNetwork,
    ReducedSystem,
    build_reduced_system,
    edge_laplacian,
)

__all__ = [
    "COUPLING_FLOOR",
    "AscentRecord",
    "ModificationProblem",
    "ModificationResult",
    "OracleSummary",
    "delta_matrix",
    "optimize_modification",
    "improvement_percent",
    "modification_is_feasible",
    "brute_force_oracle",
    "random_edge_set",
]

# eps: every modified line keeps at least this fraction of its coupling.
COUPLING_FLOOR = 1e-3
# Slack on the budget when a modification vector is checked for feasibility.
FEASIBILITY_SLACK = 1e-9
# Default cap on exhaustive enumeration; past this the problem is
# declared out of brute-force reach rather than silently running for days.
DEFAULT_COMBINATION_CAP = 100_000
# Projected gradient ascent: Armijo constant, stopping tolerances (a
# relative gain and a relative step) and hard caps per restart.
ARMIJO = 1e-4
GAIN_TOL = 1e-12
STEP_TOL = 1e-10
MAX_ASCENT_ITERATIONS = 200
MAX_BACKTRACKS = 60
PROJECTION_BISECTIONS = 64


@dataclass(frozen=True)
class ModificationProblem:
    """One budgeted modification instance: network, edges, metric, budget."""

    net: GeneratorNetwork
    edge_set: tuple[EdgeId, ...]
    metric: GramianMetric
    beta: float
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        edges = tuple(self.edge_set)
        if len(edges) < 1:
            raise ValueError("edge set must contain at least one edge")
        if len(set(edges)) != len(edges):
            raise ValueError("edge set contains duplicates")
        for edge in edges:
            if edge.i > self.net.N:
                raise ValueError(f"edge {edge} out of range for N={self.net.N}")
        if not (isinstance(self.metric, GramianMetric)):
            raise ValueError(f"metric must be a GramianMetric, got {self.metric!r}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"budget must be finite, nonnegative, got {self.beta}")
        if self.restarts < 1:
            raise ValueError(f"need at least one restart, got {self.restarts}")
        object.__setattr__(self, "edge_set", edges)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def s(self) -> int:
        return len(self.edge_set)


@dataclass(frozen=True)
class ModificationResult:
    """Outcome of one optimization run, already re-validated end to end.

    ``system`` is the modified network's validated reduced system (the
    base system for the zero modification). ``restarts`` holds one record
    per restart that ran. ``fallback_reason`` is None unless the zero
    modification or the warm start was returned instead of the ascent's
    best point, and then says why.
    """

    edge_set: tuple[EdgeId, ...]
    metric: GramianMetric
    gamma: np.ndarray
    delta: np.ndarray
    L_modified: np.ndarray
    metric_before: float
    metric_after: float
    improvement_pct: float
    feasible: bool
    system: ReducedSystem
    restarts: tuple[AscentRecord, ...]
    fallback_reason: str | None

    @property
    def iterations(self) -> int:
        """Ascent iterations over all restarts."""
        return sum(r.iterations for r in self.restarts)


@dataclass(frozen=True)
class OracleSummary:
    """Exhaustive landscape over all s-subsets of a candidate set."""

    per_combination: tuple[tuple[tuple[EdgeId, ...], float], ...]
    wcs: tuple[tuple[EdgeId, ...], float]
    bcs: tuple[tuple[EdgeId, ...], float]
    candidate: tuple[tuple[EdgeId, ...], float]
    j_v: float
    j_c: float


def delta_matrix(edge_set, gamma, n_nodes: int) -> np.ndarray:
    """Laplacian perturbation realizing per-edge susceptance changes.

    Delta = sum_k gamma_k V_k with V_k the elementary edge Laplacian;
    symmetric with zero row sums by construction.
    """
    edges = tuple(edge_set)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(edges),):
        raise ValueError(
            f"gamma length {gamma.shape} does not match {len(edges)} edges"
        )
    delta = np.zeros((n_nodes, n_nodes))
    for g_k, edge in zip(gamma, edges):
        if g_k != 0.0:
            delta += g_k * edge_laplacian(edge, n_nodes)
    return delta


def _lower_bounds(net: GeneratorNetwork, edge_set) -> np.ndarray:
    """The floor -(1 - COUPLING_FLOOR) g_k of each line's change gamma_k."""
    g = np.array([net.edge_weight(edge) for edge in edge_set])
    return -(1.0 - COUPLING_FLOOR) * g


def _project(x: np.ndarray, lower: np.ndarray, beta: float) -> np.ndarray:
    """Nearest point to ``x`` of {||gamma|| <= beta, gamma >= lower}, lower <= 0.

    The KKT conditions give gamma = max(x / (1 + mu), lower) with mu >= 0,
    and ||gamma|| falls as mu grows. Bisection on t = 1/(1 + mu) in [0, 1]
    isolates the interval on which the set of components held at their
    floor stops changing; on it ||gamma||^2 = t^2 ||x_free||^2 +
    ||lower_held||^2, which is solved for ||gamma|| = beta exactly.
    """
    gamma = np.maximum(x, lower)
    if gamma @ gamma <= beta * beta:
        return gamma
    lo, hi = 0.0, 1.0  # ||gamma(0)|| = 0 <= beta < ||gamma(1)||
    for _ in range(PROJECTION_BISECTIONS):
        held = hi * x < lower
        if np.array_equal(held, lo * x < lower):
            free = x[~held]
            room = max(beta * beta - lower[held] @ lower[held], 0.0)
            t = math.sqrt(room / (free @ free))
            return np.maximum(min(max(t, lo), hi) * x, lower)
        mid = 0.5 * (lo + hi)
        gamma = np.maximum(mid * x, lower)
        if gamma @ gamma > beta * beta:
            hi = mid
        else:
            lo = mid
    return np.maximum(lo * x, lower)


class _Point(NamedTuple):
    """A feasible gamma with its metric and the factors its gradient reuses."""

    gamma: np.ndarray
    value: float
    schur: RealSchur
    W: np.ndarray
    chol: np.ndarray | None


class _ObjectiveContext:
    """Precomputed pieces shared by every objective evaluation.

    The state matrix is affine in the Laplacian, so a modified system is
    A0 + sum_k gamma_k F_k; rebuilding networks per evaluation would
    dominate the runtime. Each evaluation then factors A once: a single
    real Schur form gives the Hurwitz test and the Gramian, and a single
    Cholesky factor of the Gramian gives the metric. A gradient reuses
    both, at the cost of one adjoint solve.
    """

    def __init__(
        self, problem: ModificationProblem, base_system: ReducedSystem | None = None
    ):
        self.problem = problem
        self.sys0 = (
            build_reduced_system(problem.net) if base_system is None else base_system
        )
        self.BBt = self.sys0.B @ self.sys0.B.T
        # Row k is F_k flattened, so A(gamma) is one vector-matrix product.
        self.F = np.stack([
            edge_direction_matrix(self.sys0, problem.net, edge).ravel()
            for edge in problem.edge_set
        ])
        self.lower = _lower_bounds(problem.net, problem.edge_set)
        base_gramian = gramian_infinite(self.sys0)
        self.h_base = base_gramian.metric(problem.metric)
        self.base_point = _Point(
            np.zeros(problem.s), self.h_base, self.sys0.schur, base_gramian.W,
            base_gramian.chol,
        )

    def evaluate(self, gamma: np.ndarray) -> _Point | None:
        """The metric at ``gamma``, or None if a numerical check fails."""
        A = self.sys0.A + (gamma @ self.F).reshape(self.sys0.A.shape)
        try:
            schur = _real_schur(A)
            W = _schur_lyapunov(schur, self.BBt)
            value, chol = _factored_metric(W, self.problem.metric)
        except (PowergramError, ValueError):
            return None
        if not math.isfinite(value):
            return None
        return _Point(gamma, value, schur, W, chol)

    def gradient(self, point: _Point) -> np.ndarray | None:
        """dh/dgamma_k = 2 tr(P F_k W), with A^T P + P A + G = 0.

        G is the metric's adjoint weight (``centrality._gradient_weights``)
        and the solve runs on the Schur factor ``point`` already holds.
        None if the solve fails.
        """
        try:
            G = _gradient_weights(point.W, self.problem.metric, point.chol)
            G = _symmetric_rhs(G, self.sys0.order, "G")
            P = _schur_lyapunov(point.schur, G, adjoint=True)
        except (PowergramError, ValueError):
            return None
        return 2.0 * (self.F @ (P @ point.W).ravel())


@dataclass(frozen=True)
class AscentRecord:
    """One restart of the projected gradient ascent.

    ``converged`` is False when the restart stopped at an iteration or
    backtracking cap, or on a failed evaluation, rather than at a
    stationary point; ``best_value`` is None when the start itself failed.
    """

    start: tuple[float, ...]
    iterations: int
    value_evaluations: int
    gradient_evaluations: int
    converged: bool
    best_value: float | None


def _ascend(ctx: _ObjectiveContext, start: np.ndarray):
    """Spectral projected gradient ascent from a feasible ``start``.

    Barzilai-Borwein steps, capped so that the projected gradient moves
    at most 2 beta, with Armijo backtracking (halving) along the
    projection arc gamma(lam) = P(gamma + lam grad). Converged when an
    accepted step gains at most GAIN_TOL max(1, |h|), or the projected
    step shrinks to STEP_TOL max(1, ||gamma||). Returns the best point
    (None if the start itself fails to evaluate) and the restart's record.
    """
    beta, lower = ctx.problem.beta, ctx.lower
    point = ctx.evaluate(start)
    grad = None if point is None else ctx.gradient(point)
    evaluations, gradients = 1, int(point is not None)
    iterations, converged, lam = 0, False, math.inf
    while grad is not None and iterations < MAX_ASCENT_ITERATIONS:
        step_tol = STEP_TOL * max(1.0, float(np.linalg.norm(point.gamma)))
        grad_norm = float(np.linalg.norm(grad))
        # The projected step of unprojected length beta measures the part
        # of grad the floors and the sphere let through; cap lam so that
        # part moves at most the ball's diameter 2 beta.
        tau = beta / grad_norm if grad_norm > 0.0 else 0.0
        reach = float(np.linalg.norm(
            _project(point.gamma + tau * grad, lower, beta) - point.gamma
        ))
        if reach <= step_tol:
            converged = True
            break
        lam = min(lam, 2.0 * beta * tau / reach)
        for _ in range(MAX_BACKTRACKS):
            gamma = _project(point.gamma + lam * grad, lower, beta)
            step = gamma - point.gamma
            if float(np.linalg.norm(step)) <= step_tol:
                converged, trial = True, None
                break
            trial = ctx.evaluate(gamma)
            evaluations += 1
            if trial is not None and (
                trial.value >= point.value + ARMIJO * float(grad @ step)
            ):
                break
            lam *= 0.5
        else:
            trial = None  # backtracking cap
        if trial is None:
            break
        iterations += 1
        gain, point = trial.value - point.value, trial
        if gain <= GAIN_TOL * max(1.0, abs(point.value)):
            converged = True
            break
        new_grad = ctx.gradient(point)
        gradients += 1
        if new_grad is not None:
            # BB step for the maximization: ||s||^2 / (-s . y).
            curvature = -float(step @ (new_grad - grad))
            lam = float(step @ step) / curvature if curvature > 0.0 else math.inf
        grad = new_grad
    best_value = None if point is None else point.value
    return point, AscentRecord(
        tuple(start.tolist()), iterations, evaluations, gradients, converged,
        best_value,
    )


def improvement_percent(before: float, after: float) -> float:
    """Relative metric improvement in percent: 100 (after - before)/|before|."""
    if abs(before) < 1e-300:
        raise NumericalError(
            f"baseline metric {before!r} too close to zero for a relative measure"
        )
    return 100.0 * (after - before) / abs(before)


def _feasible_system(net, edge_set, gamma, beta: float) -> ReducedSystem | None:
    """The modified reduced system, or None if ``gamma`` is infeasible."""
    edges = tuple(edge_set)
    gamma = np.asarray(gamma, dtype=float)
    if float(np.linalg.norm(gamma)) > beta + FEASIBILITY_SLACK:
        return None
    if (gamma < _lower_bounds(net, edges)).any():
        return None
    L_mod = net.L + delta_matrix(edges, gamma, net.N)
    try:
        return build_reduced_system(net.with_laplacian(L_mod))
    except PowergramError:
        return None


def modification_is_feasible(
    net: GeneratorNetwork,
    edge_set,
    gamma,
    beta: float,
) -> bool:
    """Check the three feasibility conditions of a modification vector.

    Budget ||gamma|| <= beta with a 1e-9 slack; the coupling floor
    gamma_k >= -(1 - COUPLING_FLOOR) g_k with none, so cutting a line
    (gamma_k = -g_k) is infeasible; and stability of the modified network
    as ``build_reduced_system`` decides it, from its coupling graph. A line
    at its floor stays present iff eps g > SUPPORT_THRESHOLD, that is
    g > 1e-9, so only a line already weaker than that can disconnect.
    """
    return _feasible_system(net, edge_set, gamma, beta) is not None


def _restart_directions(problem: ModificationProblem, ctx: _ObjectiveContext):
    """The fixed multi-start schedule of unit direction vectors.

    Uniform direction, the centrality gradient over the edge set in both
    signs, then seeded random unit vectors up to the restart budget. The
    gradient is the context's gradient at gamma = 0, on the base
    system's factor; for small budgets it is often already the answer.
    """
    s = problem.s
    rng = np.random.default_rng(problem.seed)
    directions = [np.full(s, 1.0 / math.sqrt(s))]
    grad = ctx.gradient(ctx.base_point)
    norm = 0.0 if grad is None else float(np.linalg.norm(grad))
    if norm > 0:
        directions.append(grad / norm)
        directions.append(-grad / norm)
    while len(directions) < problem.restarts:
        v = rng.standard_normal(s)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            directions.append(v / norm)
    return directions[: problem.restarts]


def _starts(problem: ModificationProblem, ctx: _ObjectiveContext, warm):
    """Distinct feasible starts: P(beta/sqrt(2) d) per direction, then ``warm``."""
    radius = problem.beta / math.sqrt(2.0)
    candidates = [
        _project(radius * d, ctx.lower, problem.beta)
        for d in _restart_directions(problem, ctx)
    ]
    if warm is not None:
        candidates.append(_project(warm, ctx.lower, problem.beta))
    return [
        start for k, start in enumerate(candidates)
        if not any(np.array_equal(start, seen) for seen in candidates[:k])
    ]


def _result(problem, gamma, system, h_base, h_after, records, reason):
    return ModificationResult(
        edge_set=problem.edge_set,
        metric=problem.metric,
        gamma=gamma,
        delta=delta_matrix(problem.edge_set, gamma, problem.net.N),
        L_modified=system.network.L.copy(),
        metric_before=h_base,
        metric_after=h_after,
        improvement_pct=(
            0.0 if h_after == h_base else improvement_percent(h_base, h_after)
        ),
        feasible=True,
        system=system,
        restarts=records,
        fallback_reason=reason,
    )


def _validated(
    problem: ModificationProblem, gamma: np.ndarray, h_base: float,
    records: tuple, fallback_reason: str | None = None,
) -> ModificationResult | None:
    """Result for ``gamma`` re-checked through the public model path.

    None unless ``gamma`` is feasible and the modified network, built
    once, confirms an improvement over ``h_base`` with a fresh Gramian.
    """
    sys_mod = _feasible_system(problem.net, problem.edge_set, gamma, problem.beta)
    if sys_mod is None:
        return None
    try:
        h_after = gramian_infinite(sys_mod).metric(problem.metric)
    except PowergramError:
        return None
    if not (math.isfinite(h_after) and h_after > h_base):
        return None
    return _result(problem, gamma, sys_mod, h_base, h_after, records, fallback_reason)


def optimize_modification(
    problem: ModificationProblem,
    warm_start_gamma=None,
    base_system: ReducedSystem | None = None,
) -> ModificationResult:
    """Best feasible modification found by multi-start projected ascent.

    Feasible means ||gamma|| <= beta and gamma_k >= -(1 - eps) g_k with
    eps = COUPLING_FLOOR = 1e-3: a budget large enough to cut a line
    stops at that line's floor. Deterministic for a fixed seed: the
    restart schedule is fixed, each restart runs to its own termination,
    and ties between restarts keep the earlier one. ``warm_start_gamma``
    adds one extra start at a known feasible point (used by budget sweeps
    so a larger budget can never do worse than a smaller one).
    ``base_system`` is the unmodified network's reduced system, if the
    caller has already built it.

    The winning gamma is re-validated through the public model path
    (feasibility, network build, fresh Gramian). If that does not
    confirm an improvement, the warm start itself is re-validated the
    same way and returned if it passes; otherwise the zero modification
    is returned. Either fallback is named in ``fallback_reason``.
    """
    ctx = _ObjectiveContext(problem, base_system)
    h_base = ctx.h_base
    if not math.isfinite(h_base):
        raise NumericalError(
            "baseline metric is not finite; the unmodified pair is likely "
            "uncontrollable"
        )

    def zero_result(records, reason) -> ModificationResult:
        return _result(
            problem, np.zeros(problem.s), ctx.sys0, h_base, h_base, records, reason
        )

    if problem.beta == 0.0:
        return zero_result((), "zero budget")

    warm = None
    if warm_start_gamma is not None:
        warm = np.array(warm_start_gamma, dtype=float)
        if warm.shape != (problem.s,) or not warm.any():
            warm = None

    best = None
    records = []
    for start in _starts(problem, ctx, warm):
        point, record = _ascend(ctx, start)
        records.append(record)
        if point is not None and (best is None or point.value > best.value):
            best = point
    records = tuple(records)

    if best is None:
        cause = "every restart failed to evaluate"
    elif best.value <= h_base:
        cause = "no restart improved on the base metric"
    else:
        result = _validated(problem, best.gamma, h_base, records)
        if result is not None:
            return result
        cause = "the best point failed re-validation"
    if warm is not None:
        result = _validated(
            problem, warm, h_base, records,
            f"{cause}; returned the warm start",
        )
        if result is not None:
            return result
    # Nothing feasible beats doing nothing.
    return zero_result(records, f"{cause}; returned the zero modification")


def random_edge_set(candidate: CandidateEdgeSet, s: int, seed: int):
    """Uniform s-subset of the candidate edges, reproducible from the seed.

    Returned in candidate order (so downstream lexicographic tie-breaks
    stay meaningful).
    """
    if not 1 <= s <= len(candidate):
        raise ValueError(f"subset size s={s} out of range 1..{len(candidate)}")
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(candidate), size=s, replace=False).tolist())
    return tuple(candidate.edges[k] for k in picks)


def _set_key(edges) -> tuple:
    return tuple((e.j, e.i) for e in edges)


def brute_force_oracle(
    problem: ModificationProblem,
    candidate: CandidateEdgeSet,
    cap: int = DEFAULT_COMBINATION_CAP,
    base_system: ReducedSystem | None = None,
) -> OracleSummary:
    """Exhaustive best/worst landscape over all s-subsets of ``candidate``.

    Runs the full optimizer (identical settings and seed) on every
    subset, all on one base system (``base_system``, or built here once),
    then scores the problem's own edge set against the field:
    j_v places its improvement between worst (0) and best (100), j_c is
    the percentile of subsets it ties or beats. Refuses outright when
    the combination count exceeds ``cap``; this regime is exactly why
    the centrality shortcut exists.
    """
    s = problem.s
    n_edges = len(candidate)
    if s > n_edges:
        raise ValueError(
            f"subset size s={s} exceeds candidate size {n_edges}"
        )
    n_combos = math.comb(n_edges, s)
    if n_combos > cap:
        raise CombinationCapError(
            f"C({n_edges},{s}) = {n_combos} subsets exceed the cap of {cap}; "
            "exhaustive search refused"
        )
    combos = list(combinations(candidate.edges, s))

    if base_system is None:
        base_system = build_reduced_system(problem.net)
    improvements = [
        optimize_modification(
            replace(problem, edge_set=combo), base_system=base_system
        ).improvement_pct
        for combo in combos
    ]

    order = range(n_combos)
    wcs_idx = min(order, key=lambda k: (improvements[k], _set_key(combos[k])))
    bcs_idx = min(order, key=lambda k: (-improvements[k], _set_key(combos[k])))
    j_wcs = improvements[wcs_idx]
    j_bcs = improvements[bcs_idx]

    target = frozenset(problem.edge_set)
    j_cand = None
    cand_edges = problem.edge_set
    for combo, j in zip(combos, improvements):
        if frozenset(combo) == target:
            cand_edges, j_cand = combo, j
            break
    if j_cand is None:  # candidate outside the enumerated family
        j_cand = optimize_modification(
            problem, base_system=base_system
        ).improvement_pct
    if not (j_wcs - 1e-9 <= j_cand <= j_bcs + 1e-9):
        raise NumericalError(
            f"oracle sandwich violated: {j_wcs} <= {j_cand} <= {j_bcs} fails"
        )

    denom = j_bcs - j_wcs
    # Divide before scaling, so j_cand == j_bcs gives exactly 100.
    j_v = 100.0 if denom <= 0 else 100.0 * ((j_cand - j_wcs) / denom)
    j_c = 100.0 * sum(1 for j in improvements if j <= j_cand) / n_combos
    return OracleSummary(
        per_combination=tuple(zip(combos, improvements)),
        wcs=(combos[wcs_idx], j_wcs),
        bcs=(combos[bcs_idx], j_bcs),
        candidate=(cand_edges, j_cand),
        j_v=j_v,
        j_c=j_c,
    )
