"""Budgeted edge modification via penalized derivative-free search.

The design problem: pick susceptance changes gamma on a small set of
edges, with Euclidean budget ||gamma|| <= beta and per-edge lower bounds
gamma_k >= -g_k (a line's coupling cannot go negative), to maximize a
controllability metric of the modified network.

The feasible set is wrapped into an unconstrained problem in two steps:

* the sphere constraint disappears through the parameterization
  gamma = beta * sin(pi kappa / 2) * nu / ||nu||, optimized over
  eta = (nu, kappa);
* the remaining constraints (stability of the modified system, lower
  bounds) are enforced by a penalty: infeasible eta score -xi with xi
  huge, so the simplex search retreats from them on its own.

The winner is re-checked by one feasibility predicate, which builds the
modified network once; the result carries that validated system.

The search itself is a Nelder-Mead simplex with the standard
reflection/expansion/contraction/shrink coefficients (1, 2, 0.5, 0.5),
restarted from a fixed schedule of initial directions (uniform, the
centrality gradient both ways, and seeded random unit vectors). A restart
has converged when its vertices agree to 1e-10 and its values to 1e-10
relative to the best value (at least 1e-10 absolute); it stops
unconverged once the vertices are within 4 eps of each other, where
roundoff leaves no step that moves the simplex. gamma = 0 is always
feasible, so the optimizer never reports a regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable

import numpy as np

from .centrality import CandidateEdgeSet, _ecm_matrix, edge_direction_matrix
from .errors import (
    CombinationCapError,
    DegenerateDirectionError,
    NumericalError,
    PowergramError,
)
from .gramian import GramianMetric, gramian_infinite, metric_value
from .linalg import _hurwitz_lyapunov
from .network import (
    EdgeId,
    GeneratorNetwork,
    ReducedSystem,
    build_reduced_system,
    edge_laplacian,
)

__all__ = [
    "ModificationProblem",
    "ModificationResult",
    "OracleSummary",
    "NelderMeadResult",
    "delta_matrix",
    "parameterize",
    "penalized_objective",
    "nelder_mead_maximize",
    "optimize_modification",
    "improvement_percent",
    "modification_is_feasible",
    "brute_force_oracle",
    "random_edge_set",
]

# Practical infinity for the constraint penalty.
DEFAULT_XI = 1e10
# Slack on the budget when a modification vector is checked for feasibility.
FEASIBILITY_SLACK = 1e-9
# Default cap on exhaustive enumeration; past this the problem is
# declared out of brute-force reach rather than silently running for days.
DEFAULT_COMBINATION_CAP = 100_000


@dataclass(frozen=True)
class ModificationProblem:
    """One budgeted modification instance: network, edges, metric, budget."""

    net: GeneratorNetwork
    edge_set: tuple[EdgeId, ...]
    metric: GramianMetric
    beta: float
    xi: float = DEFAULT_XI
    parameterization: str = "sin"
    chi: float = 1.0
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
        if not self.xi >= 1e6:
            raise ValueError(f"penalty constant must be >= 1e6, got {self.xi}")
        if self.parameterization not in ("sin", "sigmoid"):
            raise ValueError(
                f"parameterization must be 'sin' or 'sigmoid', "
                f"got {self.parameterization!r}"
            )
        if not self.chi > 0:
            raise ValueError(f"sigmoid slope must be positive, got {self.chi}")
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
    base system for the zero modification).
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
    iterations: int
    system: ReducedSystem


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


class _ObjectiveContext:
    """Precomputed pieces shared by every objective evaluation.

    The state matrix is affine in the Laplacian, so a modified system is
    A0 + sum_k gamma_k F_k; rebuilding networks per evaluation would
    dominate the runtime. Each evaluation then factors A once: a single
    real Schur form gives the Hurwitz test and the Gramian, and a single
    Cholesky factor of the Gramian gives the metric.
    """

    def __init__(self, problem: ModificationProblem):
        self.problem = problem
        self.sys0 = build_reduced_system(problem.net)
        self.BBt = self.sys0.B @ self.sys0.B.T
        # Row k is F_k flattened, so A(gamma) is one vector-matrix product.
        self.F = np.stack(
            [
                edge_direction_matrix(self.sys0, problem.net, edge).ravel()
                for edge in problem.edge_set
            ]
        )
        # Lower bounds gamma_k >= -g_k, negated once so that each
        # evaluation tests them with one comparison.
        self.neg_g = -np.array(
            [problem.net.edge_weight(edge) for edge in problem.edge_set]
        )
        self.base_gramian = gramian_infinite(self.sys0)
        self.h_base = self.base_gramian.metric(problem.metric)

    def state_matrix(self, gamma: np.ndarray) -> np.ndarray:
        if not np.any(gamma):
            return self.sys0.A
        return self.sys0.A + (gamma @ self.F).reshape(self.sys0.A.shape)

    def value(self, eta: np.ndarray) -> float:
        p = self.problem
        try:
            gamma = parameterize(eta, p.beta, p.parameterization, p.chi)
        except DegenerateDirectionError:
            return -p.xi
        if (gamma < self.neg_g).any():
            return -p.xi
        try:
            W = _hurwitz_lyapunov(self.state_matrix(gamma), self.BBt)
            h = metric_value(W, p.metric)
        except (PowergramError, ValueError):
            return -p.xi
        if not math.isfinite(h):
            return -p.xi
        return h


def penalized_objective(problem: ModificationProblem, eta) -> float:
    """Metric of the modified network, or -xi when eta is infeasible.

    Total on its domain: stability violations, bound violations, and
    numerical failures all map to the penalty value instead of raising,
    which is what lets a derivative-free search roam freely.
    """
    return _ObjectiveContext(problem).value(np.asarray(eta, dtype=float))


@dataclass(frozen=True)
class NelderMeadResult:
    eta: np.ndarray
    value: float
    iterations: int
    converged: bool


def nelder_mead_maximize(
    f: Callable[[np.ndarray], float],
    eta0,
    max_iter: int | None = None,
    f_tol: float = 1e-10,
    x_tol: float = 1e-10,
) -> NelderMeadResult:
    """Derivative-free simplex maximization of a total function.

    Classic Nelder-Mead with reflection 1, expansion 2, contraction 0.5,
    shrink 0.5, started from the conventional simplex (each coordinate of
    eta0 nudged by 5 percent, or 0.00025 when zero). The search has
    converged when the vertex spread is below ``x_tol`` and the value
    spread is below ``f_tol * max(1, |f_best|)``: the value tolerance is
    relative, because an objective of size 1e4 carries roundoff far above
    an absolute 1e-10. It stops unconverged when the vertex spread falls
    to 4 eps * max(1, max|x_best|), where no step can move the simplex any
    more, or at the iteration cap (400 per dimension by default). Either
    way it returns the best vertex seen and the convergence flag.
    Hand-written because ``import scipy.optimize`` adds about 19 MB of
    resident memory and about 0.25 s to every CLI start for the same steps.
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

    # Row 0 is x0, row k + 1 nudges coordinate k.
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
        # Sorted ascending and rounding is monotone, so the last
        # difference is exactly the largest |v - v_best|.
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
    if (gamma < -np.array([net.edge_weight(e) for e in edges])).any():
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

    Budget ||gamma|| <= beta with a 1e-9 slack; lower bounds gamma_k >= -g_k
    with none, the comparison the objective makes; and stability of the
    modified network as ``build_reduced_system`` decides it.
    """
    return _feasible_system(net, edge_set, gamma, beta) is not None


def _restart_directions(problem: ModificationProblem, ctx: _ObjectiveContext):
    """The fixed multi-start schedule of unit direction vectors.

    Uniform direction, the centrality gradient over the edge set in both
    signs, then seeded random unit vectors up to the restart budget. The
    gradient encodes first-order information, which for small budgets is
    often already the answer.
    """
    s = problem.s
    rng = np.random.default_rng(problem.seed)
    directions = [np.full(s, 1.0 / math.sqrt(s))]
    full = _ecm_matrix(ctx.sys0, ctx.base_gramian.W, problem.metric)
    grad = np.array([full[edge.i - 1, edge.j - 1] for edge in problem.edge_set])
    norm = float(np.linalg.norm(grad))
    if norm > 0 and np.all(np.isfinite(grad)):
        directions.append(grad / norm)
        directions.append(-grad / norm)
    while len(directions) < problem.restarts:
        v = rng.standard_normal(s)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            directions.append(v / norm)
    return directions[: problem.restarts]


def _validated(
    problem: ModificationProblem, gamma: np.ndarray, h_base: float,
    iterations: int,
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
    return ModificationResult(
        edge_set=problem.edge_set,
        metric=problem.metric,
        gamma=gamma,
        delta=delta_matrix(problem.edge_set, gamma, problem.net.N),
        L_modified=sys_mod.network.L,
        metric_before=h_base,
        metric_after=h_after,
        improvement_pct=improvement_percent(h_base, h_after),
        feasible=True,
        iterations=iterations,
        system=sys_mod,
    )


def optimize_modification(
    problem: ModificationProblem, warm_start_gamma=None
) -> ModificationResult:
    """Best feasible modification found by the multi-start simplex search.

    Deterministic for a fixed seed: the restart schedule is fixed, each
    restart runs to its own termination, and ties between restarts keep
    the earlier one. ``warm_start_gamma`` adds one extra restart seeded
    at a known feasible point (used by budget sweeps so a larger budget
    can never do worse than a smaller one).

    The winning gamma is re-validated through the public model path
    (feasibility, network build, fresh Gramian). If that does not
    confirm an improvement, or every restart was penalized, the warm
    start itself is re-validated the same way and returned if it passes;
    otherwise the zero modification is returned.
    """
    ctx = _ObjectiveContext(problem)
    h_base = ctx.h_base
    if not math.isfinite(h_base):
        raise NumericalError(
            "baseline metric is not finite; the unmodified pair is likely "
            "uncontrollable"
        )

    def zero_result(iterations: int) -> ModificationResult:
        return ModificationResult(
            edge_set=problem.edge_set,
            metric=problem.metric,
            gamma=np.zeros(problem.s),
            delta=np.zeros((problem.net.N, problem.net.N)),
            L_modified=problem.net.L.copy(),
            metric_before=h_base,
            metric_after=h_base,
            improvement_pct=0.0,
            feasible=True,
            iterations=iterations,
            system=ctx.sys0,
        )

    if problem.beta == 0.0:
        return zero_result(0)

    starts = [
        np.append(direction, 0.5)
        for direction in _restart_directions(problem, ctx)
    ]
    warm = None
    if warm_start_gamma is not None:
        warm = np.array(warm_start_gamma, dtype=float)
        norm = float(np.linalg.norm(warm))
        if warm.shape == (problem.s,) and norm > 0:
            ratio = min(1.0, norm / problem.beta)
            kappa = 2.0 / math.pi * math.asin(ratio)
            starts.append(np.append(warm / norm, kappa))
        else:
            warm = None

    best: NelderMeadResult | None = None
    total_iterations = 0
    for eta0 in starts:
        outcome = nelder_mead_maximize(ctx.value, eta0)
        total_iterations += outcome.iterations
        if best is None or outcome.value > best.value:
            best = outcome

    # A value at the penalty means every restart was penalized out.
    if best is not None and best.value > -problem.xi * 0.5:
        gamma = parameterize(
            best.eta, problem.beta, problem.parameterization, problem.chi
        )
        norm = float(np.linalg.norm(gamma))
        if norm > problem.beta:  # sin wraps, so only roundoff can land here
            gamma *= problem.beta / norm
        result = _validated(problem, gamma, h_base, total_iterations)
        if result is not None:
            return result
    if warm is not None:
        result = _validated(problem, warm, h_base, total_iterations)
        if result is not None:
            return result
    # Nothing feasible beats doing nothing.
    return zero_result(total_iterations)


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
) -> OracleSummary:
    """Exhaustive best/worst landscape over all s-subsets of ``candidate``.

    Runs the full optimizer (identical settings and seed) on every
    subset, then scores the problem's own edge set against the field:
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

    improvements = [
        optimize_modification(replace(problem, edge_set=combo)).improvement_pct
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
        j_cand = optimize_modification(problem).improvement_pct
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
