import math
import types
import zlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import powergram.modify
from oracles import (
    PENALTY,
    DegenerateDirectionError,
    PenalizedObjective,
    fd_all_metric_gradients,
    grid_maximum,
    incidence_delta,
    nearest_floored_point,
    nelder_mead_maximize,
    parameterize,
)
from powergram import (
    COUPLING_FLOOR,
    CandidateEdgeSet,
    CombinationCapError,
    EdgeId,
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
    optimize_modification,
    random_edge_set,
    select_edge_set,
)
from powergram.centrality import _ecm_matrix
from powergram.modify import _ascend, _project, _restart_directions

PAIR_21_31 = (EdgeId(2, 1), EdgeId(3, 1))


def hash_noise(x: np.ndarray) -> float:
    """Deterministic pseudo-noise in [-1, 1) keyed on the bits of x."""
    return zlib.crc32(np.asarray(x, dtype=float).tobytes()) / 2.0**31 - 1.0


def ecm_problem(net, metric, s: int, beta: float) -> ModificationProblem:
    """The problem ``modify`` poses: the top-s ECM lines of the support."""
    report = build_ecm(
        build_reduced_system(net), net,
        CandidateEdgeSet.laplacian_support(net), metric,
    )
    return ModificationProblem(
        net=net, edge_set=select_edge_set(report, s), metric=metric, beta=beta
    )


def floor_of(net, edges) -> np.ndarray:
    return -(1.0 - COUPLING_FLOOR) * np.array([net.edge_weight(e) for e in edges])


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


class TestProjection:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_matches_active_set_enumeration(self, s, seed, beta):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(s) * 3.0
        lower = -rng.uniform(0.0, 3.0, size=s)
        gamma = _project(x, lower, beta)
        expected = nearest_floored_point(x, lower, beta)
        assert np.allclose(gamma, expected, rtol=0.0, atol=1e-12)
        assert np.all(gamma >= lower)
        assert np.linalg.norm(gamma) <= beta * (1.0 + 1e-15)

    def test_feasible_point_is_returned_unchanged(self):
        x = np.array([0.3, -0.4])
        lower = np.array([-1.0, -0.5])
        assert _project(x, lower, 1.0) is not x
        assert np.array_equal(_project(x, lower, 1.0), x)

    def test_floor_and_sphere_corner(self):
        # A floor of -0.6 leaves 0.8 for the other edge on the unit sphere.
        gamma = _project(np.array([-3.0, 4.0]), np.array([-0.6, -2.0]), 1.0)
        assert gamma[0] == -0.6
        assert gamma[1] == pytest.approx(0.8, abs=1e-15)

    def test_single_edge_is_an_interval(self):
        lower = np.array([-0.5])
        assert np.array_equal(_project(np.array([-2.0]), lower, 1.0), lower)
        assert np.array_equal(_project(np.array([2.0]), lower, 1.0), [1.0])


class TestObjective:
    def test_zero_modification_equals_baseline_exactly(self, ieee9):
        # gamma = 0 must reproduce the unmodified metric bit for bit: the
        # optimizer's improvement-over-baseline bookkeeping relies on it.
        sys = build_reduced_system(ieee9)
        for metric in GramianMetric:
            problem = ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=metric, beta=1.0
            )
            ctx = powergram.modify._ObjectiveContext(problem, sys)
            h0 = gramian_infinite(sys).metric(metric)
            assert ctx.evaluate(np.zeros(2)).value == h0
            assert ctx.base_point.value == h0

    def test_value_and_gradient_lapack_counts(self, ieee9, lapack_calls):
        # A value is one dgees and one dtrsyl; its gradient adds one adjoint
        # dtrsyl on the same factor. No eigenvalue call and no scipy
        # Lyapunov solver (which would factor A again) may run.
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        ctx = powergram.modify._ObjectiveContext(problem)
        lapack_calls.clear()
        point = ctx.evaluate(np.array([0.4, -0.3]))
        assert len(lapack_calls.dgees) == 1
        assert lapack_calls.dtrsyl == ["N"]
        ctx.gradient(point)
        assert len(lapack_calls.dgees) == 1
        assert lapack_calls.dtrsyl == ["N", "T"]
        assert lapack_calls.eigvals == 0

    def test_one_schur_factorization_per_evaluation(self, ieee9, monkeypatch):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        ctx = powergram.modify._ObjectiveContext(problem)
        gamma = np.array([0.4, -0.3])
        expected = ctx.evaluate(gamma).value

        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization of the state matrix")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
        point = ctx.evaluate(gamma)
        assert point.value == expected
        ctx.gradient(point)

    @pytest.mark.parametrize("metric", list(GramianMetric), ids=lambda m: m.value)
    def test_gradient_matches_ecm_and_finite_differences(self, ieee9, metric):
        # At an interior gamma the ascent gradient is the edge centrality of
        # the modified network: the ECM of the built system to 1e-10, and a
        # cancellation-free central difference to 1e-5.
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=metric, beta=1.0
        )
        ctx = powergram.modify._ObjectiveContext(problem)
        gamma = np.array([0.35, -0.25])
        grad = ctx.gradient(ctx.evaluate(gamma))
        net_mod = ieee9.with_laplacian(
            ieee9.L + incidence_delta(PAIR_21_31, gamma, ieee9.N)
        )
        sys_mod = build_reduced_system(net_mod)
        full = _ecm_matrix(sys_mod, gramian_infinite(sys_mod).W, metric)
        for k, edge in enumerate(PAIR_21_31):
            ecm = full[edge.i - 1, edge.j - 1]
            assert abs(grad[k] - ecm) <= 1e-10 * abs(ecm)
            fd = fd_all_metric_gradients(net_mod, edge)[metric]
            assert abs(grad[k] - fd) <= 1e-5 * abs(fd)


class _QuadraticContext:
    """Stand-in objective context: h(gamma) = c - sum_k w_k (gamma_k - t_k)^2."""

    def __init__(self, target, beta, lower, c=0.0, noise=0.0, weights=1.0):
        self.problem = types.SimpleNamespace(beta=beta)
        self.lower = np.asarray(lower, dtype=float)
        self.target = np.asarray(target, dtype=float)
        self.c, self.noise, self.weights = c, noise, weights

    def evaluate(self, gamma):
        h = self.c - float(np.sum(self.weights * (gamma - self.target) ** 2))
        if self.noise:
            h += self.noise * math.sin(1e6 * float(np.sum(gamma)))
        return types.SimpleNamespace(gamma=gamma, value=h)

    def gradient(self, point):
        return -2.0 * self.weights * (point.gamma - self.target)


class TestProjectedAscent:
    def test_quadratic_bowl(self):
        # The maximizer over the floored ball is the target's projection.
        for dim in (2, 4, 6):
            target = np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim)
            lower = -np.full(dim, 0.5)
            ctx = _QuadraticContext(target, 3.0, lower)
            point, record = _ascend(ctx, np.zeros(dim))
            assert record.converged
            expected = nearest_floored_point(target, lower, 3.0)
            assert np.allclose(point.gamma, expected, atol=1e-8)
            assert record.best_value == point.value

    def test_interior_maximum(self):
        target = np.array([0.2, -0.1])
        ctx = _QuadraticContext(target, 1.0, [-1.0, -1.0])
        point, record = _ascend(ctx, np.array([0.5, 0.5]))
        assert record.converged
        assert np.allclose(point.gamma, target, atol=1e-8)

    def test_constant_function_converges(self):
        # A zero gradient is stationary: no step, no further evaluation.
        ctx = _QuadraticContext(np.array([1.0, 2.0]), 5.0, [-1.0, -1.0])
        point, record = _ascend(ctx, np.array([1.0, 2.0]))
        assert record.converged
        assert (record.iterations, record.value_evaluations) == (0, 1)
        assert np.array_equal(point.gamma, [1.0, 2.0])

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(powergram.modify, "MAX_ASCENT_ITERATIONS", 3)
        ctx = _QuadraticContext(
            np.array([0.3, -0.2, 0.1]), 1.0, -np.ones(3),
            weights=np.array([1.0, 1e2, 1e4]),
        )
        point, record = _ascend(ctx, np.array([0.9, 0.0, -0.4]))
        assert not record.converged
        assert record.iterations == 3

    def test_large_objective_with_roundoff_noise_converges(self):
        # Values near 1e4 with noise of 1e-12 relative: the ascent must
        # stop by its own tests at roundoff, not at the iteration cap.
        ctx = _QuadraticContext(
            np.array([0.3, -0.7]), 2.0, [-1.0, -1.0], c=1e4, noise=1e-8
        )
        point, record = _ascend(ctx, np.zeros(2))
        assert record.converged
        assert record.iterations < powergram.modify.MAX_ASCENT_ITERATIONS
        assert np.allclose(point.gamma, [0.3, -0.7], atol=1e-3)


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

    @settings(max_examples=50)
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
        # kappa = 0 reproduces the unmodified metric bit for bit, so the
        # search's values compare with the optimizer's baseline directly.
        sys = build_reduced_system(ieee9)
        for metric in GramianMetric:
            problem = ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=metric, beta=1.0
            )
            h0 = gramian_infinite(sys).metric(metric)
            assert PenalizedObjective(problem)(np.array([0.5, 0.5, 0.0])) == h0

    def test_bound_violation_is_penalized(self, ieee9):
        # Full budget against edge (3,2): coupling g = 1.7217 < beta = 2,
        # so gamma = -2 on that edge breaks the floor.
        problem = ModificationProblem(
            net=ieee9, edge_set=(EdgeId(3, 2),), metric=GramianMetric.TRACE, beta=2.0
        )
        assert PenalizedObjective(problem)(np.array([-1.0, 1.0])) == -PENALTY

    def test_destabilizing_modification_is_penalized(self, toy2):
        # Removing the only line (gamma = -g = -1) kills connectivity. With
        # the bound -g in place of the floor, the failed evaluation is
        # what scores it.
        problem = ModificationProblem(
            net=toy2, edge_set=(EdgeId(2, 1),), metric=GramianMetric.TRACE, beta=1.0
        )
        f = PenalizedObjective(problem, lower=[-1.0])
        assert f(np.array([-1.0, 1.0])) == -PENALTY

    def test_degenerate_direction_is_penalized(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE, beta=1.0
        )
        assert PenalizedObjective(problem)(np.array([0.0, 0.0, 0.3])) == -PENALTY

    def test_feasible_point_beats_penalty(self, ieee9):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        value = PenalizedObjective(problem)(np.array([1.0, 1.0, 0.25]))
        assert value > -PENALTY
        assert math.isfinite(value)

    def test_one_schur_factorization_per_evaluation(self, ieee9, monkeypatch):
        # Each evaluation goes through the library's objective context, so
        # neither a separate eigenvalue call nor scipy's Lyapunov solver
        # (which factors A again) may run. The objective is built unpatched.
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        eta = np.array([1.0, 1.0, 0.25])
        f = PenalizedObjective(problem)
        expected = f(eta)

        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization of the state matrix")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", forbidden)
        value = f(eta)
        assert value == expected
        assert math.isfinite(value) and value > -PENALTY


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
        self.assert_sweep_past_line_cut_is_monotone(ieee9, warm_started=True)

    def test_plain_budget_sweep_past_line_cut_is_monotone(self, ieee9):
        # The answer at beta = 2 no longer falls back to gamma = 0.
        self.assert_sweep_past_line_cut_is_monotone(ieee9, warm_started=False)

    @staticmethod
    def assert_sweep_past_line_cut_is_monotone(ieee9, warm_started):
        # From beta = 1.5 on, both lines reach their coupling floor; the
        # answer stays there instead of falling back to gamma = 0.
        warm = None
        improvements = []
        for beta in (0.5, 1.0, 1.5, 2.0):
            problem = ecm_problem(ieee9, GramianMetric.LOG_DET, 2, beta)
            result = optimize_modification(problem, warm_start_gamma=warm)
            assert result.feasible
            assert result.fallback_reason is None
            assert modification_is_feasible(
                ieee9, result.edge_set, result.gamma, beta
            )
            if warm_started:
                warm = result.gamma
            improvements.append(result.improvement_pct)
        for earlier, later in zip(improvements, improvements[1:]):
            assert later >= earlier - 1e-9, improvements
        assert np.array_equal(result.gamma, floor_of(ieee9, result.edge_set))
        assert improvements[-1] == pytest.approx(24.266, abs=1e-3)

    def test_trace_pair_stops_at_roundoff(self, ieee9):
        # Trace is about 8.7e3, so each value carries roundoff near 1e-12
        # of it; every restart must still stop by its own tests, below the
        # iteration cap.
        result = optimize_modification(
            ecm_problem(ieee9, GramianMetric.TRACE, 2, 1.0)
        )
        cap = powergram.modify.MAX_ASCENT_ITERATIONS
        assert all(r.converged and r.iterations < cap for r in result.restarts)
        assert result.improvement_pct == pytest.approx(0.7629507, rel=1e-6)

    def test_restart_gradient_from_one_adjoint_solve(self, ieee9, lapack_calls):
        problem = ModificationProblem(
            net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.LOG_DET, beta=1.0
        )
        ctx = powergram.modify._ObjectiveContext(problem)
        W = gramian_infinite(ctx.sys0).W
        grad = np.array(
            [ecm_entry(ctx.sys0, W, edge, problem.metric) for edge in PAIR_21_31]
        )
        # The gradient is the context's gradient at gamma = 0: one adjoint
        # solve on the base system's Schur factor, which it already holds.
        lapack_calls.clear()
        directions = powergram.modify._restart_directions(problem, ctx)
        assert lapack_calls.dgees == []
        assert lapack_calls.dtrsyl == ["T"]
        assert np.allclose(directions[1], grad / np.linalg.norm(grad), rtol=1e-12)

    def test_single_edge_runs_two_starts(self, ieee9):
        # At s = 1 the eight directions are all +1 or -1, so only the two
        # distinct starts +-beta/sqrt(2) run.
        result = optimize_modification(
            ecm_problem(ieee9, GramianMetric.LOG_DET, 1, 1.0)
        )
        starts = sorted(r.start for r in result.restarts)
        assert starts == [(-1.0 / math.sqrt(2.0),), (1.0 / math.sqrt(2.0),)]

    def test_warm_start_equal_to_a_start_is_skipped(self, ieee9):
        problem = ecm_problem(ieee9, GramianMetric.LOG_DET, 1, 1.0)
        plain = optimize_modification(problem)
        warm = optimize_modification(
            problem, warm_start_gamma=np.array([1.0 / math.sqrt(2.0)])
        )
        assert len(warm.restarts) == len(plain.restarts) == 2
        assert warm.improvement_pct == plain.improvement_pct

    def test_every_restart_converges_on_nine_bus_grid(self, ieee9):
        # 3 metrics x s in {1, 2} x beta in {0.5, 1, 1.5}: no restart may
        # reach its iteration cap, and no answer may fall back.
        cap = powergram.modify.MAX_ASCENT_ITERATIONS
        sys = build_reduced_system(ieee9)
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        for metric in GramianMetric:
            report = build_ecm(sys, ieee9, candidate, metric)
            for s in (1, 2):
                for beta in (0.5, 1.0, 1.5):
                    problem = ModificationProblem(
                        net=ieee9, edge_set=select_edge_set(report, s),
                        metric=metric, beta=beta,
                    )
                    result = optimize_modification(problem, base_system=sys)
                    key = (metric.value, s, beta)
                    assert result.fallback_reason is None, key
                    assert result.restarts, key
                    for record in result.restarts:
                        assert record.converged, (key, record)
                        assert record.iterations < cap, (key, record)
                        assert record.gradient_evaluations <= record.value_evaluations
                    assert result.iterations == sum(
                        r.iterations for r in result.restarts
                    )
                    best = max(r.best_value for r in result.restarts)
                    assert best == pytest.approx(result.metric_after, rel=1e-12)

    @pytest.mark.parametrize("metric", list(GramianMetric), ids=lambda m: m.value)
    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_dense_grid_where_the_floor_binds(self, ieee9, metric, s):
        # At beta in {1.5, 2} the floor binds on the nine-bus ECM picks; the
        # ascent must reach the best node of a dense grid over the set.
        sys = build_reduced_system(ieee9)
        for beta in (1.5, 2.0):
            problem = ecm_problem(ieee9, metric, s, beta)
            result = optimize_modification(problem, base_system=sys)
            lower = floor_of(ieee9, problem.edge_set)
            grid = grid_maximum(
                ieee9, problem.edge_set, metric, beta, lower,
                points=201 if s == 1 else 31,
            )
            tol = 1e-6 * abs(grid)
            assert result.metric_after >= grid - tol, (beta, result.gamma)

    def test_matches_the_nelder_mead_answers_on_nine_bus(self, ieee9):
        # Improvements the penalized Nelder-Mead search gave for the ECM
        # picks; the floor does not bind at these budgets, so the ascent
        # must reproduce them to 6 significant digits.
        expected = {
            0.5: (0.35839679, 0.42507285, 1.30891085, 1.75510243,
                  14.2489185, 19.7787802),
            1.0: (0.59849114, 0.76295071, 3.18999193, 4.53129664,
                  28.1375369, 39.2006062),
        }
        sys = build_reduced_system(ieee9)
        candidate = CandidateEdgeSet.laplacian_support(ieee9)
        for beta, values in expected.items():
            got = []
            for metric in GramianMetric:
                report = build_ecm(sys, ieee9, candidate, metric)
                for s in (1, 2):
                    problem = ModificationProblem(
                        net=ieee9, edge_set=select_edge_set(report, s),
                        metric=metric, beta=beta,
                    )
                    got.append(
                        optimize_modification(problem, base_system=sys)
                        .improvement_pct
                    )
            assert got == pytest.approx(values, rel=5e-7), (beta, got)

    @pytest.mark.parametrize("metric", list(GramianMetric), ids=lambda m: m.value)
    def test_at_least_the_nelder_mead_search_on_nine_bus(self, ieee9, metric):
        # A derivative-free simplex search of the penalized objective over
        # the same floored set, from the first two restart directions,
        # never finds more than the ascent, with or without a binding floor.
        for beta in (1.0, 2.0):
            problem = ecm_problem(ieee9, metric, 2, beta)
            f = PenalizedObjective(problem)
            best = max(
                nelder_mead_maximize(f, np.append(d, 0.5)).value
                for d in _restart_directions(problem, f.ctx)[:2]
            )
            after = optimize_modification(problem).metric_after
            assert after >= best - 1e-9 * abs(best)

    def test_fallback_reason_names_the_zero_budget(self, ieee9):
        problem = ecm_problem(ieee9, GramianMetric.LOG_DET, 2, 0.0)
        assert optimize_modification(problem).fallback_reason == "zero budget"

    def test_fallback_reason_when_nothing_improves(self, ieee9, monkeypatch):
        # An objective whose every evaluation fails leaves only gamma = 0.
        monkeypatch.setattr(
            powergram.modify._ObjectiveContext, "evaluate", lambda self, g: None
        )
        result = optimize_modification(
            ecm_problem(ieee9, GramianMetric.LOG_DET, 2, 1.0)
        )
        assert np.array_equal(result.gamma, np.zeros(2))
        assert result.fallback_reason == (
            "every restart failed to evaluate; returned the zero modification"
        )
        assert all(
            not r.converged and r.best_value is None for r in result.restarts
        )

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
        with pytest.raises(ValueError, match="restart"):
            ModificationProblem(
                net=ieee9, edge_set=PAIR_21_31, metric=GramianMetric.TRACE,
                beta=1.0, restarts=0,
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

    def test_cutting_a_line_exactly_is_infeasible(self, ieee9):
        # Every line keeps COUPLING_FLOOR of its coupling.
        g = ieee9.edge_weight(EdgeId(3, 1))
        assert not modification_is_feasible(
            ieee9, (EdgeId(3, 1),), np.array([-g]), beta=2.0
        )
        floor = -(1.0 - COUPLING_FLOOR) * g
        assert modification_is_feasible(
            ieee9, (EdgeId(3, 1),), np.array([floor]), beta=2.0
        )

    def test_lower_bound_has_no_slack(self, ieee9):
        # The floor is compared exactly; the projection lands on it exactly.
        (floor,) = floor_of(ieee9, (EdgeId(3, 1),))
        assert modification_is_feasible(
            ieee9, (EdgeId(3, 1),), np.array([floor]), beta=2.0
        )
        assert not modification_is_feasible(
            ieee9, (EdgeId(3, 1),), np.array([np.nextafter(floor, -np.inf)]),
            beta=2.0,
        )


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

        def fake_optimize(p, **kwargs):
            pct = improvements[frozenset(p.edge_set)]
            return types.SimpleNamespace(improvement_pct=pct)

        monkeypatch.setattr(powergram.modify, "optimize_modification", fake_optimize)
        summary = brute_force_oracle(problem, candidate)
        assert summary.bcs[1] == summary.candidate[1] == 39.20060620435751
        assert summary.j_v == 100.0
