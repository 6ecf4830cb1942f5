import math
import types
import zlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import powergram.modify
from oracles import incidence_delta, list_nelder_mead
from powergram import (
    DEFAULT_XI,
    CandidateEdgeSet,
    CombinationCapError,
    DegenerateDirectionError,
    EdgeId,
    GeneratorNetwork,
    GramianMetric,
    ModificationProblem,
    NumericalError,
    brute_force_oracle,
    build_ecm,
    build_reduced_system,
    delta_matrix,
    ecm_entry,
    gramian_infinite,
    improvement_percent,
    modification_is_feasible,
    nelder_mead_maximize,
    optimize_modification,
    parameterize,
    penalized_objective,
    random_edge_set,
    select_edge_set,
)

PAIR_21_31 = (EdgeId(2, 1), EdgeId(3, 1))


def hash_noise(x: np.ndarray) -> float:
    """Deterministic pseudo-noise in [-1, 1) keyed on the bits of x."""
    return zlib.crc32(np.asarray(x, dtype=float).tobytes()) / 2.0**31 - 1.0


def assert_matches_list_reference(f, eta0) -> None:
    """The array loop and the list-loop reference agree bit for bit."""
    res = nelder_mead_maximize(f, eta0)
    eta, value, iterations, converged = list_nelder_mead(f, eta0)
    assert np.array_equal(res.eta, eta)
    assert res.value == value
    assert (res.iterations, res.converged) == (iterations, converged)


def ecm_problem(net, metric, s: int, beta: float) -> ModificationProblem:
    """The problem ``modify`` poses: the top-s ECM lines of the support."""
    report = build_ecm(
        build_reduced_system(net), net,
        CandidateEdgeSet.laplacian_support(net), metric,
    )
    return ModificationProblem(
        net=net, edge_set=select_edge_set(report, s), metric=metric, beta=beta
    )


class TestDeltaMatrix:
    def test_zero_gamma_is_zero(self):
        assert np.array_equal(
            delta_matrix(PAIR_21_31, np.zeros(2), 3), np.zeros((3, 3))
        )

    def test_single_edge_pattern(self):
        delta = delta_matrix((EdgeId(3, 1),), np.array([2.5]), 3)
        expected = 2.5 * np.array(
            [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        assert np.array_equal(delta, expected)

    def test_published_two_edge_modification(self):
        # gamma = (-0.9438, 0.3304) on {(2,1),(3,1)} assembles into the
        # known trace-metric perturbation of the 9-bus network.
        delta = delta_matrix(PAIR_21_31, np.array([-0.9438, 0.3304]), 3)
        expected = np.array(
            [
                [-0.6134, 0.9438, -0.3304],
                [0.9438, -0.9438, 0.0],
                [-0.3304, 0.0, 0.3304],
            ]
        )
        assert np.allclose(delta, expected, atol=1e-12)

    def test_structure_invariants(self):
        rng = np.random.default_rng(0)
        gamma = rng.standard_normal(2)
        delta = delta_matrix(PAIR_21_31, gamma, 4)
        assert np.array_equal(delta, delta.T)
        assert np.max(np.abs(delta.sum(axis=1))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_incidence_factorization(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        all_edges = CandidateEdgeSet.all_pairs(n).edges
        k = int(rng.integers(1, len(all_edges) + 1))
        picks = rng.choice(len(all_edges), size=k, replace=False)
        edges = tuple(all_edges[p] for p in sorted(picks.tolist()))
        gamma = rng.standard_normal(k)
        assert np.allclose(
            delta_matrix(edges, gamma, n),
            incidence_delta(edges, gamma, n),
            atol=1e-12,
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delta_matrix(PAIR_21_31, np.zeros(3), 3)


class TestParameterize:
    def test_kappa_one_reaches_budget_along_direction(self):
        gamma = parameterize(np.array([1.0, 0.0, 1.0]), beta=2.0)
        assert np.allclose(gamma, [2.0, 0.0], atol=1e-15)

    def test_kappa_zero_is_zero(self):
        gamma = parameterize(np.array([0.3, -0.7, 0.0]), beta=5.0)
        assert np.array_equal(gamma, np.zeros(2))

    def test_kappa_third_gives_half_budget(self):
        # sin(pi/6) = 1/2 exactly up to the sine's own rounding.
        gamma = parameterize(np.array([1.0, 1.0 / 3.0]), beta=1.0)
        assert abs(np.linalg.norm(gamma) - 0.5) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_never_exceeds_budget(self, s, seed, beta):
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal(s + 1) * 10.0
        gamma = parameterize(eta, beta=beta)
        assert np.linalg.norm(gamma) <= beta * (1.0 + 1e-12) + 1e-15

    def test_sigmoid_stays_inside_open_ball(self):
        eta = np.array([1.0, 0.0])
        g0 = parameterize(eta, beta=1.0, kind="sigmoid", chi=2.0)
        assert np.linalg.norm(g0) == pytest.approx(0.5)  # kappa = 0 -> middle
        g_far = parameterize(np.array([1.0, 50.0]), beta=1.0, kind="sigmoid")
        assert 0.0 < np.linalg.norm(g_far) < 1.0 + 1e-12
        # exp(1000) overflows a double; the logistic limit there is radius 0.
        g_low = parameterize(np.array([1.0, -1000.0]), beta=1.0, kind="sigmoid")
        assert np.array_equal(g_low, np.zeros(1))

    def test_degenerate_direction_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            parameterize(np.array([0.0, 0.0, 0.5]), beta=1.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            parameterize(np.array([1.0]), beta=1.0)  # no direction left
        with pytest.raises(ValueError):
            parameterize(np.array([1.0, 0.5]), beta=1.0, kind="tanh")


class TestPenalizedObjective:
    def test_zero_modification_equals_baseline_exactly(self, ieee9):
        # kappa = 0 must reproduce the unmodified metric bit for bit: the
        # optimizer's improvement-over-baseline bookkeeping relies on it.
        sys = build_reduced_system(ieee9)
        for metric in GramianMetric:
            problem = ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=metric, beta=1.0
            )
            h0 = gramian_infinite(sys).metric(metric)
            assert penalized_objective(problem, np.array([0.5, 0.5, 0.0])) == h0

    def test_bound_violation_is_penalized(self, ieee9):
        # Full budget against edge (3,2): coupling g = 1.7217 < beta = 2,
        # so gamma = -2 on that edge breaks the lower bound.
        problem = ModificationProblem(
            net=ieee9, edge_set=(EdgeId(3, 2),), metric=GramianMetric.TRACE, beta=2.0
        )
        assert penalized_objective(problem, np.array([-1.0, 1.0])) == -problem.xi

    def test_destabilizing_modification_is_penalized(self, toy2):
        # Removing the only line (gamma = -g = -1) kills connectivity.
        problem = ModificationProblem(
            net=toy2, edge_set=(EdgeId(2, 1),), metric=GramianMetric.TRACE, beta=1.0
        )
        assert penalized_objective(problem, np.array([-1.0, 1.0])) == -problem.xi

    def test_degenerate_direction_is_penalized(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=1.0
        )
        assert penalized_objective(problem, np.array([0.0, 0.0, 0.3])) == -problem.xi

    def test_feasible_point_beats_penalty(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        value = penalized_objective(problem, np.array([1.0, 1.0, 0.25]))
        assert value > -problem.xi
        assert math.isfinite(value)

    def test_one_schur_factorization_per_evaluation(self, ieee9, monkeypatch):
        # The Hurwitz test and the Gramian share one real Schur form, so
        # neither a separate eigenvalue call nor scipy's Lyapunov solver
        # (which factors A again) may run inside the objective. The
        # context, which penalized_objective builds before it calls
        # value, is built unpatched.
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        eta = np.array([1.0, 1.0, 0.25])
        expected = penalized_objective(problem, eta)
        ctx = powergram.modify._ObjectiveContext(problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization of the state matrix")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
        value = ctx.value(eta)
        assert value == expected
        assert math.isfinite(value) and value > -problem.xi


class TestNelderMead:
    def test_quadratic_bowl(self):
        for dim in (2, 4, 6):
            target = np.arange(1.0, dim + 1.0)
            f = lambda x: -float(np.sum((x - target) ** 2))
            res = nelder_mead_maximize(f, np.zeros(dim))
            assert res.converged
            assert res.value == pytest.approx(0.0, abs=1e-8)
            assert np.allclose(res.eta, target, atol=1e-4)

    def test_constant_function_converges(self):
        # Flat objective: the value spread is zero from the start, and the
        # simplex collapses geometrically until the vertex spread follows.
        res = nelder_mead_maximize(lambda x: 7.5, np.array([1.0, 2.0]))
        assert res.converged
        assert res.iterations <= 60
        assert res.value == 7.5
        assert np.array_equal(res.eta, np.array([1.0, 2.0]))

    def test_negative_rosenbrock(self):
        f = lambda x: -(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        res = nelder_mead_maximize(f, np.array([-1.2, 1.0]))
        assert res.value >= -1e-6
        assert np.allclose(res.eta, [1.0, 1.0], atol=1e-3)

    def test_iteration_cap_reported(self):
        f = lambda x: -float(np.sum((x - 3.0) ** 2))
        res = nelder_mead_maximize(f, np.zeros(3), max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_large_objective_with_roundoff_noise_converges(self):
        # Values near 1e4 with noise of 1e-12 relative: an absolute value
        # tolerance of 1e-10 sits below that noise and never passes.
        target = np.array([0.3, -0.7])

        def f(x):
            return 1e4 - float(np.sum((x - target) ** 2)) + 1e-8 * hash_noise(x)

        res = nelder_mead_maximize(f, np.zeros(2))
        assert res.converged
        assert res.iterations < 800
        assert np.allclose(res.eta, target, atol=1e-3)

    def test_noise_on_collapsed_simplex_stops_unconverged(self):
        # Noise of 0.1 never lets the value spread pass; the search stops
        # once the vertices are within a few ulps, not at the cap.
        res = nelder_mead_maximize(
            lambda x: -float(np.sum(x**2)) + 0.1 * hash_noise(x),
            np.array([1.0, 2.0]),
            max_iter=800,
        )
        assert not res.converged
        assert res.iterations < 800

    @pytest.mark.parametrize(
        "f, eta0",
        [
            (lambda x: -float(np.sum((x - np.arange(1.0, 5.0)) ** 2)), np.zeros(4)),
            (
                lambda x: -(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
                np.array([-1.2, 1.0]),
            ),
            (lambda x: 1e4 + 1e-8 * hash_noise(x), np.array([0.5, 0.0, 1.0])),
        ],
        ids=["bowl", "rosenbrock", "noise"],
    )
    def test_matches_list_reference(self, f, eta0):
        assert_matches_list_reference(f, eta0)

    @pytest.mark.parametrize("metric", list(GramianMetric), ids=lambda m: m.value)
    def test_matches_list_reference_on_nine_bus(self, ieee9, metric):
        problem = ecm_problem(ieee9, metric, 2, 1.0)
        ctx = powergram.modify._ObjectiveContext(problem)
        for direction in powergram.modify._restart_directions(problem, ctx)[:2]:
            assert_matches_list_reference(ctx.value, np.append(direction, 0.5))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nelder_mead_maximize(lambda x: 0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            nelder_mead_maximize(lambda x: 0.0, np.array([np.nan]))


class TestOptimizeModification:
    def test_zero_budget_returns_zero_modification(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=0.0
        )
        result = optimize_modification(problem)
        assert np.array_equal(result.gamma, np.zeros(2))
        assert result.improvement_pct == 0.0
        assert result.feasible
        assert np.array_equal(result.L_modified, ieee9.L)

    def test_nine_bus_logdet_single_edge(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=(EdgeId(3, 1),), metric=GramianMetric.LOG_DET, beta=1.0
        )
        result = optimize_modification(problem)
        assert result.improvement_pct == pytest.approx(3.1898, rel=0.05)
        assert result.feasible
        assert result.metric_after > result.metric_before
        # The reported pieces must be mutually consistent.
        assert np.allclose(
            result.L_modified,
            ieee9.L + result.delta,
            atol=1e-12,
        )
        assert np.allclose(
            result.delta, delta_matrix(result.edge_set, result.gamma, 3), atol=1e-15
        )
        sys_mod = build_reduced_system(ieee9.with_laplacian(result.L_modified))
        assert gramian_infinite(sys_mod).metric(GramianMetric.LOG_DET) == pytest.approx(
            result.metric_after, rel=1e-12
        )

    def test_deterministic_for_fixed_seed(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.NEG_TRACE_INV,
            beta=1.0, seed=3,
        )
        r1 = optimize_modification(problem)
        r2 = optimize_modification(problem)
        assert np.array_equal(r1.gamma, r2.gamma)
        assert r1.improvement_pct == r2.improvement_pct

    def test_improvement_never_negative(self, ieee9):
        for metric in GramianMetric:
            for beta in (0.05, 0.5):
                problem = ModificationProblem(
                    net=ieee9, edge_set=(EdgeId(2, 1),), metric=metric, beta=beta
                )
                result = optimize_modification(problem)
                assert result.improvement_pct >= 0.0
                assert result.metric_after >= result.metric_before

    def test_result_is_feasible(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=1.0
        )
        result = optimize_modification(problem)
        assert np.linalg.norm(result.gamma) <= problem.beta + 1e-9
        weights = np.array([ieee9.edge_weight(e) for e in result.edge_set])
        assert np.all(result.gamma + weights >= -1e-9)
        assert modification_is_feasible(
            ieee9, result.edge_set, result.gamma, problem.beta
        )

    def test_warm_start_cannot_hurt(self, ieee9):
        small = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=0.3
        )
        r_small = optimize_modification(small)
        large = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=0.6
        )
        r_warm = optimize_modification(large, warm_start_gamma=r_small.gamma)
        assert r_warm.improvement_pct >= r_small.improvement_pct - 1e-9

    def test_budget_sweep_past_line_cut_is_monotone(self, ieee9):
        # At beta = 2 the best point the search finds fails re-validation;
        # the warm start (beta = 1.5's answer) is still feasible and must
        # be returned instead of the zero modification.
        warm = None
        improvements = []
        for beta in (0.5, 1.0, 1.5, 2.0):
            problem = ecm_problem(ieee9, GramianMetric.LOG_DET, 2, beta)
            result = optimize_modification(problem, warm_start_gamma=warm)
            assert result.feasible
            assert modification_is_feasible(
                ieee9, result.edge_set, result.gamma, beta
            )
            warm = result.gamma
            improvements.append(result.improvement_pct)
        for earlier, later in zip(improvements, improvements[1:]):
            assert later >= earlier - 1e-9, improvements
        assert improvements[-1] > 17.0, improvements

    def test_trace_pair_stops_at_roundoff(self, ieee9):
        # Trace is about 8.7e3, so restarts must not keep shrinking a
        # collapsed simplex to the iteration cap (4745 iterations at an
        # absolute value tolerance).
        result = optimize_modification(
            ecm_problem(ieee9, GramianMetric.TRACE, 2, 1.0)
        )
        assert result.iterations < 2400
        assert result.improvement_pct == pytest.approx(0.7629507, rel=1e-6)

    def test_restart_gradient_from_one_adjoint_solve(self, ieee9, lapack_calls):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        ctx = powergram.modify._ObjectiveContext(problem)
        grad = np.array(
            [
                ecm_entry(ctx.sys0, ctx.base_gramian.W, edge, problem.metric)
                for edge in PAIR_21_31
            ]
        )
        # The gradient is one adjoint solve on the base system's Schur
        # factor, which the context already holds.
        lapack_calls.clear()
        directions = powergram.modify._restart_directions(problem, ctx)
        assert lapack_calls.dgees == []
        assert lapack_calls.dtrsyl == ["T"]
        assert np.array_equal(directions[1], grad / np.linalg.norm(grad))

    def test_problem_validation(self, ieee9):
        with pytest.raises(ValueError, match="at least one edge"):
            ModificationProblem(
                net=ieee9, edge_set=(), metric=GramianMetric.TRACE, beta=1.0
            )
        with pytest.raises(ValueError, match="duplicates"):
            ModificationProblem(
                net=ieee9,
                edge_set=(EdgeId(2, 1), EdgeId(2, 1)),
                metric=GramianMetric.TRACE,
                beta=1.0,
            )
        with pytest.raises(ValueError, match="metric"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric="trace", beta=1.0
            )
        with pytest.raises(ValueError, match="nonnegative"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=-1.0
            )
        with pytest.raises(ValueError, match="penalty"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE,
                beta=1.0, xi=10.0,
            )
        with pytest.raises(ValueError, match="restart"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE,
                beta=1.0, restarts=0,
            )
        with pytest.raises(ValueError, match="parameterization"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE,
                beta=1.0, parameterization="exp",
            )
        assert (
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=1.0
            ).xi
            == DEFAULT_XI
        )


class TestImprovementPercent:
    def test_trivial_cases(self):
        assert improvement_percent(2.0, 2.0) == 0.0
        assert improvement_percent(2.0, 3.0) == 50.0
        # Negative baseline: moving from -10 to -5 is a +50% improvement.
        assert improvement_percent(-10.0, -5.0) == 50.0

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(NumericalError):
            improvement_percent(0.0, 1.0)


class TestFeasibilityCheck:
    def test_budget_violation(self, ieee9):
        assert not modification_is_feasible(
            ieee9, PAIR_21_31, np.array([1.0, 1.0]), beta=1.0
        )

    def test_lower_bound_violation(self, ieee9):
        g = ieee9.edge_weight(EdgeId(2, 1))
        assert not modification_is_feasible(
            ieee9, (EdgeId(2, 1),), np.array([-(g + 0.1)]), beta=2.0
        )

    def test_destabilizing_change(self, toy2):
        assert not modification_is_feasible(
            toy2, (EdgeId(2, 1),), np.array([-1.0]), beta=1.0
        )

    def test_zero_is_always_feasible(self, ieee9):
        assert modification_is_feasible(ieee9, PAIR_21_31, np.zeros(2), beta=0.0)


class TestRandomEdgeSet:
    def test_deterministic_and_in_candidate_order(self, ieee9):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        a = random_edge_set(candidate, 2, seed=11)
        b = random_edge_set(candidate, 2, seed=11)
        assert a == b
        positions = [candidate.edges.index(e) for e in a]
        assert positions == sorted(positions)

    def test_full_set(self, ieee9):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        assert random_edge_set(candidate, 3, seed=0) == candidate.edges

    def test_out_of_range(self, ieee9):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        for s in (0, 4):
            with pytest.raises(ValueError):
                random_edge_set(candidate, s, seed=0)

    def test_roughly_uniform(self, ieee9):
        # 600 singleton draws: each edge lands near 200 (3 sigma band).
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        counts = {e: 0 for e in candidate}
        for seed in range(600):
            counts[random_edge_set(candidate, 1, seed=seed)[0]] += 1
        sigma = math.sqrt(600 * (1 / 3) * (2 / 3))
        for e, c in counts.items():
            assert abs(c - 200) <= 3 * sigma, (e, c)


class TestBruteForceOracle:
    def test_cap_refusal(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=(EdgeId(2, 1),), metric=GramianMetric.TRACE, beta=1.0
        )
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        with pytest.raises(CombinationCapError):
            brute_force_oracle(problem, candidate, cap=2)

    def test_subset_larger_than_candidate_rejected(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=1.0
        )
        with pytest.raises(ValueError):
            brute_force_oracle(
                problem, CandidateEdgeSet.explicit([EdgeId(2, 1)])
            )

    def test_single_combination_is_degenerate_optimum(self, ieee9):
        # s = |candidate|: the only subset is simultaneously WCS and BCS.
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        problem = ModificationProblem(
            net=ieee9, edge_set=candidate.edges, metric=GramianMetric.LOG_DET,
            beta=1.0,
        )
        summary = brute_force_oracle(problem, candidate)
        assert len(summary.per_combination) == 1
        assert summary.j_v == 100.0
        assert summary.j_c == 100.0
        assert summary.wcs == summary.bcs == summary.candidate

    def test_sandwich_and_bookkeeping(self, ieee9):
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        problem = ModificationProblem(
            net=ieee9, edge_set=(EdgeId(3, 1),), metric=GramianMetric.LOG_DET,
            beta=1.0,
        )
        summary = brute_force_oracle(problem, candidate)
        assert len(summary.per_combination) == 3
        js = [j for _, j in summary.per_combination]
        assert summary.wcs[1] == min(js)
        assert summary.bcs[1] == max(js)
        assert summary.wcs[1] - 1e-9 <= summary.candidate[1] <= summary.bcs[1] + 1e-9
        assert 0.0 <= summary.j_v <= 100.0
        assert 0.0 < summary.j_c <= 100.0
        # The candidate row is the matching enumerated combination.
        assert frozenset(summary.candidate[0]) == frozenset(problem.edge_set)

    def test_best_candidate_scores_exactly_100(self, ieee9, monkeypatch):
        # Improvements of the nine-bus neg-trace-inv run at s=2: the pick
        # is the best subset, and (j - wcs) / (bcs - wcs) must not lose
        # the last bit to roundoff on the way to J_V = 100.
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.NEG_TRACE_INV,
            beta=1.0,
        )
        improvements = {
            frozenset(PAIR_21_31): 39.20060620435751,
            frozenset((EdgeId(2, 1), EdgeId(3, 2))): 36.97948140736948,
            frozenset((EdgeId(3, 1), EdgeId(3, 2))): 36.483135195192425,
        }

        def fake_optimize(p):
            pct = improvements[frozenset(p.edge_set)]
            return types.SimpleNamespace(improvement_pct=pct)

        monkeypatch.setattr(powergram.modify, "optimize_modification", fake_optimize)
        summary = brute_force_oracle(problem, candidate)
        assert summary.bcs[1] == summary.candidate[1] == 39.20060620435751
        assert summary.j_v == 100.0
